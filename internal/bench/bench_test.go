package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of §5 must have an experiment, plus the three
	// ablations and the parallel measurement.
	want := []string{
		"fig5", "fig6", "table1", "fig7", "fig8", "table2", "table3",
		"table4", "fig9", "table5", "fig10", "fig11", "parallel",
		"ablation-asym", "ablation-gamma", "ablation-prior",
		"selectk", "ext-holdout",
	}
	if n := len(Registry()); n != len(want) {
		t.Fatalf("registry has %d experiments, want %d", n, len(want))
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q missing", id)
		}
	}
	if _, ok := Get("ghost"); ok {
		t.Error("ghost experiment should not resolve")
	}
}

func TestRegistryMetadata(t *testing.T) {
	for _, e := range Registry() {
		if e.ID == "" || e.Title == "" || e.Description == "" || e.Run == nil {
			t.Errorf("experiment %+v has incomplete metadata", e.ID)
		}
	}
}

func TestConfigNormalization(t *testing.T) {
	c := Config{}.normalized()
	if c.Scale != 1 || c.Runs != 20 || c.Seed != 1 {
		t.Errorf("normalized zero config = %+v", c)
	}
	if (Config{Scale: 0.5}).scaled(100, 10) != 50 {
		t.Error("scaled() wrong")
	}
	if (Config{Scale: 0.001}).scaled(100, 10) != 10 {
		t.Error("scaled() floor wrong")
	}
}

func TestReportWriteTo(t *testing.T) {
	r := newReport("x", "title")
	r.addf("line %d", 1)
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "x: title") || !strings.Contains(out, "line 1") {
		t.Errorf("report rendering wrong: %q", out)
	}
}

// TestQualityLedger runs every registered experiment at the smoke
// configuration and diffs its Quality map exactly against the committed
// ledger, naming every moved, missing or extra key. Fits are bitwise
// deterministic at every Parallelism and GOAMD64 level and the baselines
// are seeded, so there is no tolerance: a moved value is a changed fit.
// The one way to regenerate the ledger is
//
//	go run ./cmd/experiments -run all -scale 0.06 -runs 2 -seed 5 -json internal/bench/testdata/quality_smoke.json
//
// and a re-record names every moved value in CHANGES.md. The generic
// checks below hold whatever a re-record writes.
func TestQualityLedger(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "quality_smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ledger map[string]float64
	if err := json.Unmarshal(raw, &ledger); err != nil {
		t.Fatal(err)
	}
	recorded := make(map[string]map[string]float64) // experiment id → key → value
	for k, v := range ledger {
		id, key, _ := strings.Cut(k, "/")
		if recorded[id] == nil {
			recorded[id] = make(map[string]float64)
		}
		recorded[id][key] = v
	}
	cfg := Config{Scale: 0.06, Runs: 2, Seed: 5}
	for _, e := range Registry() {
		t.Run(e.ID, func(t *testing.T) {
			rep, err := e.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			diffQuality(t, recorded[e.ID], rep.Quality)
			checkReport(t, rep)
		})
		delete(recorded, e.ID)
	}
	for id := range recorded {
		t.Errorf("ledger holds values of unregistered experiment %q", id)
	}
}

// diffQuality reports every key whose value moved, is missing from got, or
// is not in the ledger.
func diffQuality(t *testing.T, want, got map[string]float64) {
	t.Helper()
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		w, inLedger := want[k]
		g, inReport := got[k]
		switch {
		case !inReport:
			t.Errorf("missing %s: ledger %v, report has no value", k, w)
		case !inLedger:
			t.Errorf("extra %s: report %v, not in ledger", k, g)
		case math.Float64bits(w) != math.Float64bits(g):
			t.Errorf("moved %s: ledger %v, now %v", k, w, g)
		}
	}
}

// timingKeys is how many timing values each experiment reports: fig11's
// 2 settings × 3 sizes × 3 observation counts and parallel's seconds and
// speedup at 3 widths. Every other experiment reports quality only.
var timingKeys = map[string]int{"fig11": 18, "parallel": 6}

// checkReport asserts what must hold of any recording: finite quality
// values, NMI and MAP in [0, 1], non-negative strengths, table 1's broad
// venue less focused than its focused one, and positive timings.
func checkReport(t *testing.T, rep *Report) {
	t.Helper()
	for k, v := range rep.Quality {
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("%s = %v, not finite", k, v)
		case unitInterval(rep.ID, k) && (v < 0 || v > 1):
			t.Errorf("%s = %v outside [0, 1]", k, v)
		case isStrength(rep.ID, k) && v < 0:
			t.Errorf("strength %s = %v negative", k, v)
		}
	}
	if rep.ID == "table1" && !(rep.Quality["broadVenueEntropy"] > rep.Quality["focusedVenueEntropy"]) {
		t.Errorf("broad venue entropy %v not above focused %v",
			rep.Quality["broadVenueEntropy"], rep.Quality["focusedVenueEntropy"])
	}
	if len(rep.Timing) != timingKeys[rep.ID] {
		t.Errorf("%d timing values, want %d", len(rep.Timing), timingKeys[rep.ID])
	}
	for k, v := range rep.Timing {
		if !(v > 0) {
			t.Errorf("timing %s = %v, want > 0", k, v)
		}
	}
}

// unitInterval reports whether a quality key is an NMI or a MAP.
func unitInterval(id, key string) bool {
	switch id {
	case "fig5", "fig6", "fig7", "fig8", "table2", "table3", "table4", "ext-holdout", "ablation-gamma":
		return true
	}
	return strings.Contains(key, "NMI") || strings.HasSuffix(key, "/MAP")
}

// isStrength reports whether a quality key is a learned strength γ.
func isStrength(id, key string) bool {
	return id == "fig9" || id == "table5" || (id == "ablation-prior" && strings.HasSuffix(key, "/publish_in"))
}
