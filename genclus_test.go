package genclus_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"genclus"
)

// TestPublicAPIEndToEnd exercises the documented quick-start flow: build a
// network through the façade, fit, inspect memberships and strengths.
func TestPublicAPIEndToEnd(t *testing.T) {
	b := genclus.NewBuilder()
	b.DeclareAttribute(genclus.AttrSpec{Name: "text", Kind: genclus.Categorical, VocabSize: 10})
	for i := 0; i < 8; i++ {
		id := string(rune('a' + i))
		b.AddObject(id, "doc")
		topic := i / 4
		for w := 0; w < 8; w++ {
			b.AddTermCount(id, "text", topic*5+w%5, 1)
		}
	}
	for i := 0; i < 8; i++ {
		topic := i / 4
		for j := topic * 4; j < topic*4+4; j++ {
			if i != j {
				b.AddLink(string(rune('a'+i)), string(rune('a'+j)), "cites", 1)
			}
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := genclus.DefaultOptions(2)
	opts.Seed = 7
	res, err := genclus.Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Theta) != net.NumObjects() {
		t.Fatalf("theta rows = %d", len(res.Theta))
	}
	labels := genclus.HardLabels(res.Theta)
	a0, _ := net.IndexOf("a")
	e0, _ := net.IndexOf("e")
	if labels[a0] == labels[e0] {
		t.Error("the two topics should separate")
	}
	if res.Gamma["cites"] < 0 {
		t.Error("strength must be non-negative")
	}
}

func TestPublicGenerators(t *testing.T) {
	wds, err := genclus.GenerateWeather(genclus.WeatherSetting1(40, 20, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if wds.Net.NumObjects() != 60 {
		t.Errorf("weather objects = %d", wds.Net.NumObjects())
	}
	cfg := genclus.DefaultBiblioConfig(genclus.SchemaACP, 3)
	cfg.NumAuthors = 50
	cfg.NumPapers = 80
	cfg.LabeledPapers = 10
	bds, err := genclus.GenerateBibliographic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bds.Net.ObjectsOfType("paper")) != 80 {
		t.Errorf("papers = %d", len(bds.Net.ObjectsOfType("paper")))
	}
}

func TestPublicMetrics(t *testing.T) {
	nmi, err := genclus.NMI([]int{0, 0, 1, 1}, []int{1, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nmi-1) > 1e-12 {
		t.Errorf("NMI = %v", nmi)
	}
	sims := genclus.Similarities()
	if len(sims) != 3 {
		t.Fatal("expected 3 similarity functions")
	}
}

func TestPublicSerializationRoundTrip(t *testing.T) {
	ds, err := genclus.GenerateWeather(genclus.WeatherSetting1(20, 10, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/net.json"
	if err := ds.Net.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := genclus.LoadNetwork(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumObjects() != ds.Net.NumObjects() || back.NumEdges() != ds.Net.NumEdges() {
		t.Error("round trip changed network shape")
	}
	data, err := ds.Net.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := genclus.NetworkFromJSON(data); err != nil {
		t.Fatal(err)
	}
}

func TestPublicLinkPrediction(t *testing.T) {
	ds, err := genclus.GenerateWeather(genclus.WeatherSetting1(40, 20, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	opts := genclus.DefaultOptions(4)
	opts.OuterIters = 2
	opts.EMIters = 3
	res, err := genclus.Fit(ds.Net, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sim := range genclus.Similarities() {
		mapv, err := genclus.LinkPredictionMAP(ds.Net, res.Theta, "<T,P>", sim)
		if err != nil {
			t.Fatal(err)
		}
		if mapv < 0 || mapv > 1 {
			t.Errorf("%s MAP = %v", sim.Name, mapv)
		}
	}
}

// TestPublicAssign covers the online-inference surface: AssignObjects
// returns stable copies, a decoded snapshot assigns identically to the
// in-memory model it came from, and the typed errors surface through the
// public aliases.
func TestPublicAssign(t *testing.T) {
	ds, err := genclus.GenerateWeather(genclus.WeatherSetting1(40, 20, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	opts := genclus.DefaultOptions(ds.NumClusters)
	opts.Seed = 2
	model, err := genclus.Fit(ds.Net, opts)
	if err != nil {
		t.Fatal(err)
	}
	rel := ds.Net.Relations()[0]
	anchor := ds.Net.Object(0).ID
	queries := []genclus.AssignQuery{{
		ID:    "q0",
		Links: []genclus.AssignLink{{Relation: rel, To: anchor, Weight: 1}},
	}}

	out, err := genclus.AssignObjects(model, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0].Theta) != ds.NumClusters || out[0].ID != "q0" {
		t.Fatalf("assignment shape wrong: %+v", out)
	}
	// AssignObjects results are stable copies: a second call through a
	// fresh engine must not disturb them.
	keep := append([]float64(nil), out[0].Theta...)
	if _, err := genclus.AssignObjects(model, queries); err != nil {
		t.Fatal(err)
	}
	for k := range keep {
		if out[0].Theta[k] != keep[k] {
			t.Fatal("AssignObjects result mutated by a later call")
		}
	}

	// Snapshot round trip: the decoded model assigns bit-identically.
	data, err := genclus.EncodeModel(model)
	if err != nil {
		t.Fatal(err)
	}
	back, err := genclus.DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := genclus.AssignObjects(back, queries)
	if err != nil {
		t.Fatal(err)
	}
	for k := range keep {
		if out2[0].Theta[k] != keep[k] {
			t.Fatalf("snapshot-decoded model assigns differently: %v vs %v", out2[0].Theta, keep)
		}
	}

	// Typed errors through the public aliases.
	var qe *genclus.AssignQueryError
	if _, err := genclus.AssignObjects(model, []genclus.AssignQuery{{Links: []genclus.AssignLink{{Relation: "ghost", To: anchor, Weight: 1}}}}); !errors.As(err, &qe) {
		t.Fatalf("unknown relation: %v, want AssignQueryError", err)
	}
	eng, err := genclus.NewAssigner(model, genclus.AssignOptions{Limits: genclus.AssignLimits{MaxBatch: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var le *genclus.AssignLimitError
	if _, err := eng.AssignBatch(make([]genclus.AssignQuery, 2)); !errors.As(err, &le) {
		t.Fatalf("oversized batch: %v, want AssignLimitError", err)
	}
}

// TestSaveModelAtomic: a SaveModel that cannot publish (the path is a
// directory) fails and leaves no temp file behind, and a save to a file
// path round-trips the snapshot bytes and replaces an earlier snapshot.
func TestSaveModelAtomic(t *testing.T) {
	ds, err := genclus.GenerateWeather(genclus.WeatherSetting1(20, 10, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	opts := genclus.DefaultOptions(ds.NumClusters)
	opts.OuterIters = 2
	model, err := genclus.Fit(ds.Net, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := genclus.EncodeModel(model)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	sub := filepath.Join(dir, "sub")
	if err := os.Mkdir(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := genclus.SaveModel(sub, model); err == nil {
		t.Fatal("SaveModel onto a directory succeeded")
	}
	if debris, _ := filepath.Glob(filepath.Join(dir, ".gcsnap-*")); len(debris) != 0 {
		t.Fatalf("failed SaveModel left temp files %v", debris)
	}

	path := filepath.Join(dir, "m.gcsnap")
	if err := os.WriteFile(path, []byte("an older snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := genclus.SaveModel(path, model); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("saved file is not EncodeModel's bytes")
	}
	back, err := genclus.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := genclus.EncodeModel(back); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("loaded model re-encodes differently (err %v)", err)
	}
	if debris, _ := filepath.Glob(filepath.Join(dir, ".gcsnap-*")); len(debris) != 0 {
		t.Fatalf("SaveModel left temp files %v", debris)
	}
}
