package server

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genclus/client"
	"genclus/internal/core"
	"genclus/internal/hin"
	"genclus/internal/infer"
	"genclus/internal/snapshot"
)

// TestSupervisorAutoRefitUnderLoad is the continuous-clustering
// integration test: a fitted network is mutated under sustained /assign
// load until the supervisor's pending-depth trigger fires. It pins the
// full contract — zero failed assigns during rollforward, the auto-refit
// recorded at the exact mutated generation, and the published model
// bitwise-identical to a manual warm-start fit of the same generation.
func TestSupervisorAutoRefitUnderLoad(t *testing.T) {
	s, ts := testServer(t, Config{
		Workers:                  2,
		SupervisorMaxPending:     3,
		SupervisorDriftThreshold: -1, // isolate the pending-depth trigger
		SupervisorInterval:       10 * time.Millisecond,
	})
	network, _ := testNetworkJSON(t, 20, 1)
	netID := uploadNetwork(t, ts, network)

	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(7, 1)})
	baseModelID := waitForState(t, ts, jobID, client.StateDone).ModelID
	if baseModelID == "" {
		t.Fatal("finished fit published no model")
	}
	res := fetchResult(t, ts, jobID)
	target := res.Objects[0].ID

	// Sustained assign load against the base model for the whole
	// mutate-and-refit window; every single request must succeed.
	var assigns, failures atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				code, _ := singleLinkAssign(t, ts, baseModelID, target, fmt.Sprintf("load%d-%d", w, i))
				assigns.Add(1)
				if code != http.StatusOK {
					failures.Add(1)
				}
			}
		}(w)
	}

	// Three mutations reach SupervisorMaxPending; the supervisor schedules
	// a warm-start refit of generation 3.
	for i := 0; i < 3; i++ {
		doc := fmt.Sprintf(`{"objects":[{"id":"new%d","type":"doc","terms":{"text":[{"t":%d,"c":2}]}}],"links":[{"from":"new%d","to":"%s","rel":"cites","w":1}]}`,
			i, i, i, target)
		if code, _ := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/objects", doc); code != http.StatusOK {
			t.Fatalf("mutation %d failed: %d", i, code)
		}
	}

	var st client.SupervisorStatus
	waitFor(t, 60*time.Second, func() bool {
		st = supStatus(t, ts, netID)
		return st.RefitsSucceeded == 1
	})
	close(stop)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d of %d assigns failed during rollforward", failures.Load(), assigns.Load())
	}
	if assigns.Load() == 0 {
		t.Fatal("assign load loop never ran")
	}
	if !st.Active || st.RefitsTriggered != 1 || st.RefitsFailed != 0 || st.LastRefitGeneration != 3 || st.LastModelID == "" {
		t.Fatalf("supervisor status after auto-refit: %+v", st)
	}

	autoEntry, ok := s.store.model(st.LastModelID)
	if !ok {
		t.Fatalf("auto-refit model %s not in the registry", st.LastModelID)
	}
	if gen := autoEntry.meta[metaNetworkGeneration]; gen != "3" {
		t.Fatalf("auto-refit model records generation %q, want \"3\"", gen)
	}

	// The rolled-forward model serves assigns immediately.
	if code, body := singleLinkAssign(t, ts, st.LastModelID, target, "rolled"); code != http.StatusOK {
		t.Fatalf("assign against auto-refit model: %d: %s", code, body)
	}

	// Manual warm start from the same base model on the same generation-3
	// view must reproduce the auto-refit model bit for bit (meta differs —
	// job id, timestamps — so compare the meta-free encodings).
	manualJob := submitJob(t, ts, client.JobSpec{NetworkID: netID, WarmStartFromModel: baseModelID})
	manualModelID := waitForState(t, ts, manualJob, client.StateDone).ModelID
	manualEntry, ok := s.store.model(manualModelID)
	if !ok {
		t.Fatal("manual refit model not in the registry")
	}
	autoBytes, err := snapshot.Encode(&snapshot.Snapshot{Model: autoEntry.model})
	if err != nil {
		t.Fatal(err)
	}
	manualBytes, err := snapshot.Encode(&snapshot.Snapshot{Model: manualEntry.model})
	if err != nil {
		t.Fatal(err)
	}
	if string(autoBytes) != string(manualBytes) {
		t.Fatalf("auto-refit model diverges from manual warm start at the same generation: %d vs %d bytes",
			len(autoBytes), len(manualBytes))
	}

	// Health and metrics surfaces agree with the supervisor's own counters.
	h := fetchHealth(t, ts)
	if h.Mutation.RefitsTriggered != 1 || h.Mutation.RefitsSucceeded != 1 || h.Mutation.Supervisors != 1 {
		t.Fatalf("healthz mutation block after auto-refit: %+v", h.Mutation)
	}
}

// TestSupervisorDriftTrigger isolates the drift signal: with the pending
// trigger effectively disabled, adding an object the model has never seen
// (maximal drift 1.0) schedules a refit with reason drift.
func TestSupervisorDriftTrigger(t *testing.T) {
	_, ts := testServer(t, Config{
		Workers:                  1,
		SupervisorMaxPending:     1 << 20,
		SupervisorDriftThreshold: 0.5,
		SupervisorInterval:       10 * time.Millisecond,
	})
	network, _ := testNetworkJSON(t, 10, 1)
	netID := uploadNetwork(t, ts, network)
	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(7, 1)})
	waitForState(t, ts, jobID, client.StateDone)

	// A brand-new object with no links: the drift sample is exactly this
	// object, which the model cannot place — drift 1.0 ≥ 0.5.
	if code, _ := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/objects",
		`{"objects":[{"id":"alien","type":"doc","terms":{"text":[{"t":19,"c":5}]}}]}`); code != http.StatusOK {
		t.Fatal("mutation failed")
	}

	var st client.SupervisorStatus
	waitFor(t, 60*time.Second, func() bool {
		st = supStatus(t, ts, netID)
		return st.RefitsSucceeded == 1
	})
	if st.DriftScore != 1.0 {
		t.Fatalf("drift score %v, want 1.0 for an unknown object", st.DriftScore)
	}
	if h := fetchHealth(t, ts); h.Mutation.DriftScore != 1.0 {
		t.Fatalf("healthz drift_score %v, want 1.0", h.Mutation.DriftScore)
	}
}

// TestSupervisorStopsWithServer pins Close ordering: halting the server
// with a live supervisor (and possibly an in-flight auto-refit) neither
// hangs nor leaks — Close returns with no supervisor running.
func TestSupervisorStopsWithServer(t *testing.T) {
	s, ts := testServer(t, Config{
		Workers:              1,
		SupervisorMaxPending: 1,
		SupervisorInterval:   5 * time.Millisecond,
	})
	network, _ := testNetworkJSON(t, 10, 1)
	netID := uploadNetwork(t, ts, network)
	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(7, 1)})
	waitForState(t, ts, jobID, client.StateDone)
	if code, _ := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/objects",
		`{"objects":[{"id":"x1","type":"doc"}]}`); code != http.StatusOK {
		t.Fatal("mutation failed")
	}
	waitFor(t, 10*time.Second, func() bool { return s.store.numSupervisors() == 1 })

	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung with a live supervisor")
	}
	if n := s.store.numSupervisors(); n != 0 {
		t.Fatalf("%d supervisors survived Close", n)
	}
}

// referenceDrift is the drift score as an infer.Engine computes it: one
// Query per object, holding the evidence the supervisor keeps, scored by
// Engine.Assign, with a rejected query scoring 1.
func referenceDrift(t *testing.T, net *hin.Network, m *core.Model, touched []string) float64 {
	t.Helper()
	eng, err := infer.NewEngine(m, infer.Options{TopK: 1, Unbounded: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := make(map[string]int)
	for i, id := range m.ObjectIDs() {
		rows[id] = i
	}
	kinds := make(map[string]hin.Kind)
	for _, am := range m.Attrs {
		kinds[am.Name] = am.Kind
	}
	var total float64
	for _, id := range touched {
		row, known := rows[id]
		v, ok := net.IndexOf(id)
		if !known || !ok {
			total++
			continue
		}
		q := infer.Query{ID: id}
		for _, e := range net.OutEdges(v) {
			rel := net.RelationName(e.Rel)
			to := net.Object(e.To).ID
			if _, ok := m.Gamma[rel]; !ok {
				continue
			}
			if _, ok := rows[to]; !ok {
				continue
			}
			q.Links = append(q.Links, infer.Link{Relation: rel, To: to, Weight: e.Weight})
		}
		for a := 0; a < net.NumAttrs(); a++ {
			spec := net.Attr(a)
			if kind, ok := kinds[spec.Name]; !ok || kind != spec.Kind {
				continue
			}
			switch spec.Kind {
			case hin.Categorical:
				if tcs := net.TermCounts(a, v); len(tcs) > 0 {
					q.Terms = append(q.Terms, infer.CatObs{Attr: spec.Name, Terms: tcs})
				}
			case hin.Numeric:
				if xs := net.NumericObs(a, v); len(xs) > 0 {
					q.Numeric = append(q.Numeric, infer.NumObs{Attr: spec.Name, Values: xs})
				}
			}
		}
		asg, err := eng.Assign(q)
		if err != nil {
			total++
			continue
		}
		var tv float64
		for k, p := range asg.Theta {
			tv += math.Abs(p - m.Theta[row][k])
		}
		total += 0.5 * tv
	}
	return total / float64(len(touched))
}

// TestSupervisorDriftMatchesEngine holds the supervisor's Scorer-based
// drift score to the one an infer.Engine gives on the same filtered
// queries, bit for bit: on the live mutated view (new objects, links to
// unknown targets, patched terms) and on a view whose vocabulary outgrew
// the model's, where an out-of-vocabulary term scores 1.
func TestSupervisorDriftMatchesEngine(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, SupervisorDisabled: true})
	network, _ := testNetworkJSON(t, 20, 1)
	netID := uploadNetwork(t, ts, network)
	j := finishedJob(t, s, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(7, 1)})
	e, ok := s.store.model(j.snapshot().modelID)
	if !ok {
		t.Fatal("fitted model not registered")
	}
	for _, m := range []struct{ method, path, doc string }{
		{http.MethodPost, "/objects", `{"objects":[{"id":"fresh1","type":"doc","terms":{"text":[{"t":3,"c":2}]}},{"id":"fresh2","type":"doc"}],` +
			`"links":[{"from":"fresh1","to":"doc0000","rel":"cites","w":1},{"from":"doc0002","to":"fresh2","rel":"cites","w":1}]}`},
		{http.MethodPost, "/edges", `{"add":[{"from":"doc0001","to":"doc0030","rel":"cites","w":3}]}`},
		{http.MethodPatch, "/attributes", `{"set":[{"id":"doc0004","terms":{"text":[{"t":15,"c":4}]}}]}`},
	} {
		if code, _ := mutate(t, ts, m.method, "/v1/networks/"+netID+m.path, m.doc); code != http.StatusOK {
			t.Fatalf("mutation %s: %d", m.path, code)
		}
	}
	live, _, _ := s.store.networkState(netID)

	// A view of some of the same objects whose text vocabulary is wider
	// than the model's.
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 30})
	for _, id := range []string{"doc0000", "doc0001", "doc0025"} {
		b.AddObject(id, "doc")
	}
	b.AddTermCount("doc0000", "text", 2, 1)
	b.AddTermCount("doc0001", "text", 25, 1)
	b.AddLink("doc0025", "doc0000", "cites", 1)
	wide, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	sup := newSupervisor(s, netID)
	for _, c := range []struct {
		name    string
		net     *hin.Network
		touched []string
	}{
		{"live", live, []string{"doc0000", "doc0001", "doc0002", "doc0004", "doc0030", "fresh1", "fresh2", "doc0039"}},
		{"wide vocabulary", wide, []string{"doc0000", "doc0001", "doc0025"}},
		{"out of vocabulary alone", wide, []string{"doc0001"}},
	} {
		got := sup.computeDrift(c.net, e, c.touched)
		want := referenceDrift(t, c.net, e.model, c.touched)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: drift %v, engine %v", c.name, got, want)
		}
	}
	if d := sup.computeDrift(wide, e, []string{"doc0001"}); d != 1 {
		t.Errorf("out-of-vocabulary term: drift %v, want 1", d)
	}
	sc := sup.sc
	if sc == nil || sup.scModelID != e.id {
		t.Fatalf("supervisor caches scorer %p for model %q, want one for %q", sc, sup.scModelID, e.id)
	}
	sup.computeDrift(live, e, []string{"doc0000"})
	if sup.sc != sc {
		t.Fatal("the drift scorer was rebuilt for an unchanged model")
	}

	// Numeric readings: a model fitted on a Gaussian attribute, scored on
	// a view with more readings and one object it never saw.
	numeric := func(extra bool) *hin.Network {
		b := hin.NewBuilder()
		b.DeclareAttribute(hin.AttrSpec{Name: "x", Kind: hin.Numeric})
		for i := 0; i < 30; i++ {
			id := fmt.Sprintf("n%02d", i)
			b.AddObject(id, "node")
			b.AddNumeric(id, "x", float64(i/15*10)+float64(i%7)/7)
			if extra && i%4 == 0 {
				b.AddNumeric(id, "x", float64(i%9))
			}
		}
		for i := 1; i < 30; i++ {
			b.AddLink(fmt.Sprintf("n%02d", i), fmt.Sprintf("n%02d", (i*7)%30), "near", 1)
		}
		if extra {
			b.AddObject("n30", "node")
			b.AddNumeric("n30", "x", 3)
			b.AddLink("n01", "n30", "near", 1)
		}
		net, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	opts := core.DefaultOptions(2)
	opts.OuterIters = 2
	m, err := core.Fit(numeric(false), opts)
	if err != nil {
		t.Fatal(err)
	}
	ne := &modelEntry{id: "mdl_numeric", model: m}
	grown := numeric(true)
	touched := []string{"n00", "n01", "n04", "n08", "n13", "n29", "n30"}
	got, want := sup.computeDrift(grown, ne, touched), referenceDrift(t, grown, m, touched)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("numeric: drift %v, engine %v", got, want)
	}
	if sup.sc == sc || sup.scModelID != ne.id {
		t.Fatal("the drift scorer was not rebuilt for a new model")
	}
}
