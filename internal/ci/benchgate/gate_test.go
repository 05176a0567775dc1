package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func i64p(v int64) *int64 { return &v }

func TestGateRules(t *testing.T) {
	base := map[string]entry{
		"em-iteration/midsize": {NsPerOp: 1000, AllocsPerOp: i64p(0)},
		"weather/cold":         {NsPerOp: 500},
	}
	cases := []struct {
		name    string
		current map[string]entry
		want    string // substring of the first violation, "" = pass
	}{
		{"identical", map[string]entry{"em-iteration/midsize": {NsPerOp: 1000, AllocsPerOp: i64p(0)}}, ""},
		{"within-threshold", map[string]entry{"em-iteration/midsize": {NsPerOp: 1249, AllocsPerOp: i64p(0)}}, ""},
		{"faster", map[string]entry{"em-iteration/midsize": {NsPerOp: 600, AllocsPerOp: i64p(0)}}, ""},
		{"ns-regression", map[string]entry{"em-iteration/midsize": {NsPerOp: 1300, AllocsPerOp: i64p(0)}}, "ns/op regressed"},
		{"alloc-increase", map[string]entry{"em-iteration/midsize": {NsPerOp: 900, AllocsPerOp: i64p(1)}}, "allocs/op increased"},
		{"allocs-vanished", map[string]entry{"em-iteration/midsize": {NsPerOp: 900}}, "records none"},
		{"missing-current", map[string]entry{"other": {NsPerOp: 1}}, "missing from current"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := gate(base, tc.current, "em-iteration/midsize", 0.25, 0, -1)
			if tc.want == "" {
				if len(got) != 0 {
					t.Fatalf("want pass, got %v", got)
				}
				return
			}
			if len(got) == 0 || !strings.Contains(got[0], tc.want) {
				t.Fatalf("want violation containing %q, got %v", tc.want, got)
			}
		})
	}

	// A key absent from the baseline fails too (the gate must not silently
	// pass a benchmark nobody committed a baseline for).
	if got := gate(map[string]entry{}, base, "em-iteration/midsize", 0.25, 0, -1); len(got) == 0 || !strings.Contains(got[0], "missing from baseline") {
		t.Fatalf("missing baseline: %v", got)
	}

	// Both regressions at once report both.
	both := map[string]entry{"em-iteration/midsize": {NsPerOp: 5000, AllocsPerOp: i64p(3)}}
	if got := gate(base, both, "em-iteration/midsize", 0.25, 0, -1); len(got) != 2 {
		t.Fatalf("want 2 violations, got %v", got)
	}
}

// TestGateAllocTolerance covers -max-allocs-regress: a fractional allocs/op
// increase allowed for paths whose count moves by a few between runs, which
// still fails a real regression and leaves a zero-alloc baseline exact.
func TestGateAllocTolerance(t *testing.T) {
	base := map[string]entry{"hin/decode": {NsPerOp: 1000, AllocsPerOp: i64p(2000)}}
	for _, tc := range []struct {
		allocs int64
		pass   bool
	}{{1990, true}, {2000, true}, {2020, true}, {2021, false}, {4000, false}} {
		cur := map[string]entry{"hin/decode": {NsPerOp: 1000, AllocsPerOp: i64p(tc.allocs)}}
		if got := gate(base, cur, "hin/decode", 0.5, 0.01, -1); (len(got) == 0) != tc.pass {
			t.Errorf("%d allocs/op against 2000 at 1%%: violations %v, want pass=%v", tc.allocs, got, tc.pass)
		}
	}
	zero := map[string]entry{"k": {NsPerOp: 1000, AllocsPerOp: i64p(0)}}
	one := map[string]entry{"k": {NsPerOp: 1000, AllocsPerOp: i64p(1)}}
	if got := gate(zero, one, "k", 0.5, 0.01, -1); len(got) != 1 {
		t.Errorf("a tolerance must not admit an allocation on a zero-alloc baseline: %v", got)
	}
}

// TestGateAbsoluteAllocCeiling covers -max-allocs: an absolute ceiling that
// holds even when the committed baseline itself has regressed, which is
// what pins the zero-alloc hot paths for good.
func TestGateAbsoluteAllocCeiling(t *testing.T) {
	// Baseline already regressed to 3 allocs/op: the relative rule passes
	// a matching current run, the absolute ceiling still fails it.
	regressed := map[string]entry{"em-iteration/midsize": {NsPerOp: 1000, AllocsPerOp: i64p(3)}}
	if got := gate(regressed, regressed, "em-iteration/midsize", 0.25, 0, -1); len(got) != 0 {
		t.Fatalf("relative-only should pass a self-consistent baseline: %v", got)
	}
	got := gate(regressed, regressed, "em-iteration/midsize", 0.25, 0, 0)
	if len(got) != 1 || !strings.Contains(got[0], "exceeds the absolute ceiling") {
		t.Fatalf("want absolute-ceiling violation, got %v", got)
	}

	clean := map[string]entry{"em-iteration/midsize": {NsPerOp: 1000, AllocsPerOp: i64p(0)}}
	if got := gate(clean, clean, "em-iteration/midsize", 0.25, 0, 0); len(got) != 0 {
		t.Fatalf("0 allocs/op under -max-allocs 0 should pass: %v", got)
	}

	// A current run with no allocs/op recorded cannot prove it meets the
	// ceiling, so it fails when one is set.
	noAllocs := map[string]entry{"em-iteration/midsize": {NsPerOp: 1000}}
	got = gate(noAllocs, noAllocs, "em-iteration/midsize", 0.25, 0, 0)
	if len(got) != 1 || !strings.Contains(got[0], "records no allocs/op") {
		t.Fatalf("want missing-allocs violation, got %v", got)
	}
}

// TestLoadEntriesAgainstCommittedBaseline parses the real committed
// BENCH_fit.json, so a format drift between the bench harness and the gate
// fails here instead of silently in CI.
func TestLoadEntriesAgainstCommittedBaseline(t *testing.T) {
	entries, err := loadEntries(filepath.Join("..", "..", "..", "BENCH_fit.json"))
	if err != nil {
		t.Fatal(err)
	}
	e, ok := entries["em-iteration/midsize"]
	if !ok {
		t.Fatal("committed baseline lacks the gated key em-iteration/midsize")
	}
	if e.NsPerOp <= 0 {
		t.Fatalf("committed baseline ns/op not positive: %+v", e)
	}
	if e.AllocsPerOp == nil || *e.AllocsPerOp != 0 {
		t.Fatalf("committed baseline should pin 0 allocs/op: %+v", e)
	}
	// The committed file gates against itself (sanity: CI passes on an
	// unchanged tree, modulo machine noise the threshold absorbs).
	if got := gate(entries, entries, "em-iteration/midsize", 0.25, 0, 0); len(got) != 0 {
		t.Fatalf("baseline does not pass against itself: %v", got)
	}
}

func TestLoadEntriesErrors(t *testing.T) {
	if _, err := loadEntries(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadEntries(bad); err == nil {
		t.Fatal("unparsable file must error")
	}
}

// TestSkipOnHost covers the -p<N> rule: a key's ns/op is skipped only
// when it names more workers than the host has CPUs; every other key is
// gated.
func TestSkipOnHost(t *testing.T) {
	for _, tc := range []struct {
		key  string
		cpus int
		skip bool
	}{
		{"em-iteration/midsize-p4", 2, true},
		{"em-iteration/midsize-p16", 8, true},
		{"em-iteration/midsize-p4", 4, false},
		{"em-iteration/midsize-p16", 16, false},
		{"outer-iteration/strength-p2", 2, false},
		{"em-iteration/midsize", 1, false},
		{"serve/assign-http-c2", 1, false},
		{"hin/decode-weather", 1, false},
		{"wire/result-encode", 1, false},
		{"x-p", 1, false},
		{"x-pfour", 1, false},
	} {
		if got := skipOnHost(tc.key, tc.cpus); (got != "") != tc.skip {
			t.Errorf("skipOnHost(%q, %d) = %q, want skip=%v", tc.key, tc.cpus, got, tc.skip)
		}
	}
}

// TestGateKeysOneFailureFailsTheRun covers a repeated -key: every key gets
// a verdict line, one failing key among passing keys fails the run, and
// the FAIL line names that key. The -p<N> skip applies to its own key only.
func TestGateKeysOneFailureFailsTheRun(t *testing.T) {
	base := map[string]entry{
		"em-phase/link":           {NsPerOp: 1000, AllocsPerOp: i64p(0)},
		"em-phase/cat":            {NsPerOp: 1000, AllocsPerOp: i64p(0)},
		"em-iteration/midsize-p4": {NsPerOp: 1000, AllocsPerOp: i64p(0)},
	}
	cur := map[string]entry{
		"em-phase/link":           {NsPerOp: 1100, AllocsPerOp: i64p(0)},
		"em-phase/cat":            {NsPerOp: 1400, AllocsPerOp: i64p(0)},
		"em-iteration/midsize-p4": {NsPerOp: 3000, AllocsPerOp: i64p(0)},
	}
	keys := []string{"em-phase/link", "em-phase/cat", "em-iteration/midsize-p4"}
	var out strings.Builder
	if gateKeys(&out, base, cur, keys, 0.25, 0, 0, 2) {
		t.Fatalf("one failing key must fail the run:\n%s", out.String())
	}
	log := out.String()
	for _, want := range []string{
		"PASS: em-phase/link:",
		"FAIL: em-phase/cat: ns/op regressed",
		"SKIP ns/op: em-iteration/midsize-p4",
		"PASS: em-iteration/midsize-p4:",
	} {
		if !strings.Contains(log, want) {
			t.Errorf("log lacks %q:\n%s", want, log)
		}
	}
	if strings.Count(log, "FAIL") != 1 {
		t.Errorf("want exactly one FAIL line:\n%s", log)
	}

	out.Reset()
	if !gateKeys(&out, base, cur, []string{"em-phase/link", "em-iteration/midsize-p4"}, 0.25, 0, 0, 2) {
		t.Fatalf("passing keys must pass the run:\n%s", out.String())
	}
	out.Reset()
	if gateKeys(&out, base, cur, []string{"em-iteration/midsize-p4"}, 0.25, 0, 0, 4) {
		t.Fatalf("on a 4-CPU host the P=4 key's ns/op is gated and must fail:\n%s", out.String())
	}
}
