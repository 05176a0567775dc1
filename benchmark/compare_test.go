package main

import (
	"testing"
)

// pairsOf builds paired op_p50_ms runs; every run attempted 1000 requests,
// of which the parent's failed parentFailed and the change's changeFailed.
func pairsOf(workload string, parent, change []float64, parentFailed, changeFailed int) []sided {
	var runs []sided
	for i := range parent {
		for side, v := range map[string]float64{"parent": parent[i], "change": change[i]} {
			failed := parentFailed
			if side == "change" {
				failed = changeFailed
			}
			runs = append(runs, sided{Side: side, Pair: i, Record: record{
				Workload: workload,
				Result: result{Correct: true, Attempted: 1000, Failed: failed,
					Metrics: map[string]metricValue{"op_p50_ms": {Value: v, Unit: "ms"}}},
			}})
		}
	}
	return runs
}

func around(center, step float64) []float64 {
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = center + step*float64(i-5)
	}
	return xs
}

func TestVerdicts(t *testing.T) {
	def := &definition{EndToEnd: []declared{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	var runs []sided
	runs = append(runs, pairsOf("faster", around(100, 0.2), around(80, 0.2), 0, 0)...)
	runs = append(runs, pairsOf("slower", around(100, 0.2), around(120, 0.2), 0, 0)...)
	runs = append(runs, pairsOf("noisy", around(100, 6), around(101, 6), 0, 0)...)
	runs = append(runs, pairsOf("same", around(100, 0.2), around(101, 0.2), 0, 0)...)
	// Faster, but by failing more requests: no gain, and a regression.
	runs = append(runs, pairsOf("shedding", around(100, 0.2), around(80, 0.2), 0, 1)...)
	// Fewer failures than the parent are not a regression.
	runs = append(runs, pairsOf("recovering", around(100, 0.2), around(80, 0.2), 2, 1)...)
	want := map[[2]string]string{
		{"faster", "op_p50_ms"}:     "improved",
		{"slower", "op_p50_ms"}:     "regressed",
		{"noisy", "op_p50_ms"}:      "unresolved",
		{"same", "op_p50_ms"}:       "unchanged",
		{"shedding", "fail_ratio"}:  "regressed",
		{"shedding", "op_p50_ms"}:   "unresolved",
		{"recovering", "op_p50_ms"}: "improved",
	}
	got := verdicts(def, runs)
	if len(got) != len(want) {
		t.Fatalf("got %d verdicts, want %d: %v", len(got), len(want), got)
	}
	for _, v := range got {
		if w := want[[2]string{v.Workload, v.Metric}]; v.Verdict != w {
			t.Errorf("%s %s: %s, want %q (%v)", v.Workload, v.Metric, v.Verdict, w, v)
		}
	}
}

func TestCompareRefusesMixedHostClasses(t *testing.T) {
	a := sided{Record: record{Host: hostStamp{NumCPU: 2, GOMAXPROCS: 2, GOARCH: "amd64", CPUModel: "x"}}}
	b := a
	b.Record.Host.GoVersion = "other" // not part of the class
	if err := sameHostClass([]sided{a, b}); err != nil {
		t.Errorf("same class refused: %v", err)
	}
	b.Record.Host.NumCPU = 16
	if err := sameHostClass([]sided{a, b}); err == nil {
		t.Error("2-core and 16-core results were compared")
	}
}
