// Command benchgate is the CI bench-regression gate: it compares a freshly
// regenerated BENCH_fit.json against the committed baseline and fails
// (exit 1) when any gated key regressed — more than the allowed ns/op
// slowdown, or any allocation-count increase at all (the EM hot path's
// steady state is pinned at 0 allocs/op; a single new allocation per
// iteration is a real regression, never noise). -key repeats: every key
// given shares the call's bounds, each gets its own PASS, SKIP or FAIL
// line, and one failing key fails the run.
//
// CI runs it after the bench steps, with the pre-bench copy of
// BENCH_fit.json as the baseline, once per bound class:
//
//	cp BENCH_fit.json /tmp/bench-baseline.json
//	go test -run=xxx -bench=BenchmarkEMIteration -benchtime=200x .
//	go run ./internal/ci/benchgate -baseline /tmp/bench-baseline.json \
//	    -current BENCH_fit.json -max-ns-regress 0.25 -max-allocs 0 \
//	    -key em-iteration/midsize -key em-iteration/midsize-p4
//
// The ns/op threshold is deliberately generous (25%) because CI machines
// vary; the alloc gate is exact because allocation counts do not — except
// on paths that fill Go maps, whose counts move by a few with hash seeds
// and Go versions: -max-allocs-regress allows such a key a fractional
// increase (the network-decode keys pass 0.01).
// -max-allocs adds an *absolute* allocs/op ceiling on top of the relative
// no-increase rule: CI passes -max-allocs 0 for the zero-alloc hot paths,
// so the pin survives even a regressed committed baseline.
//
// A key named for a worker count, "-p<N>" at its end, has its ns/op rule
// skipped, with a SKIP line, on a host with fewer than N CPUs: there its
// ns/op measures how N workers share fewer cores, not the code. Its
// allocation rules still hold, since a host's core count does not change
// what the code allocates.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// skipOnHost returns why key's ns/op is not gated on a host with numCPU
// CPUs, or "" when it is: a key ending in "-p<N>" needs N CPUs.
func skipOnHost(key string, numCPU int) string {
	i := strings.LastIndex(key, "-p")
	if i < 0 {
		return ""
	}
	n, err := strconv.Atoi(key[i+2:])
	if err != nil || n <= numCPU {
		return ""
	}
	return fmt.Sprintf("%s runs %d workers but this host has %d CPUs; its ns/op would measure the host, so its ns/op is NOT gated here (allocs/op still are)", key, n, numCPU)
}

// entry is the subset of a BENCH_fit.json measurement the gate reads.
type entry struct {
	NsPerOp     int64  `json:"ns_per_op"`
	Iterations  int    `json:"benchmark_iterations"`
	AllocsPerOp *int64 `json:"allocs_per_op"`
}

// loadEntries parses a BENCH_fit.json file.
func loadEntries(path string) (map[string]entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]entry)
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return out, nil
}

// gate compares one benchmark key between baseline and current and returns
// the violations (empty = pass). Rules: the key must exist on both sides
// (a silently vanished benchmark must not pass the gate), current ns/op may
// exceed baseline by at most maxNsRegress (fractional, e.g. 0.25 = +25%),
// and allocs/op — when the baseline records them — may exceed baseline by
// at most maxAllocsRegress (fractional; 0 fails any increase, and a zero
// baseline stays exact whatever the fraction).
// maxAllocs, when non-negative, is additionally an absolute allocs/op
// ceiling on the current run: unlike the relative rule it cannot be eroded
// by committing a regressed baseline, which is how the 0 allocs/op pins on
// the EM iteration and the assign pass stay pinned.
func gate(baseline, current map[string]entry, key string, maxNsRegress, maxAllocsRegress float64, maxAllocs int64) []string {
	var violations []string
	base, okB := baseline[key]
	cur, okC := current[key]
	if !okB {
		return append(violations, fmt.Sprintf("%s: missing from baseline — regenerate and commit BENCH_fit.json", key))
	}
	if !okC {
		return append(violations, fmt.Sprintf("%s: missing from current run — did the benchmark get renamed or filtered out?", key))
	}
	if base.NsPerOp > 0 {
		limit := float64(base.NsPerOp) * (1 + maxNsRegress)
		if float64(cur.NsPerOp) > limit {
			violations = append(violations, fmt.Sprintf(
				"%s: ns/op regressed %.1f%%: %d → %d (limit +%.0f%%)",
				key, 100*(float64(cur.NsPerOp)/float64(base.NsPerOp)-1),
				base.NsPerOp, cur.NsPerOp, 100*maxNsRegress))
		}
	}
	if base.AllocsPerOp != nil {
		if cur.AllocsPerOp == nil {
			violations = append(violations, fmt.Sprintf(
				"%s: baseline records %d allocs/op but the current run records none", key, *base.AllocsPerOp))
		} else if float64(*cur.AllocsPerOp) > float64(*base.AllocsPerOp)*(1+maxAllocsRegress) {
			violations = append(violations, fmt.Sprintf(
				"%s: allocs/op increased: %d → %d (limit +%g%%)",
				key, *base.AllocsPerOp, *cur.AllocsPerOp, 100*maxAllocsRegress))
		}
	}
	if maxAllocs >= 0 {
		if cur.AllocsPerOp == nil {
			violations = append(violations, fmt.Sprintf(
				"%s: -max-allocs %d set but the current run records no allocs/op", key, maxAllocs))
		} else if *cur.AllocsPerOp > maxAllocs {
			violations = append(violations, fmt.Sprintf(
				"%s: allocs/op %d exceeds the absolute ceiling %d",
				key, *cur.AllocsPerOp, maxAllocs))
		}
	}
	return violations
}

// gateKeys gates each key under the same bounds and writes one verdict
// line per key to w: PASS with the comparison, or a FAIL line per
// violation, after a SKIP line for a key whose ns/op rule skipOnHost lifts
// on a host with numCPU CPUs. It reports whether every key passed.
func gateKeys(w io.Writer, baseline, current map[string]entry, keys []string, maxNsRegress, maxAllocsRegress float64, maxAllocs int64, numCPU int) bool {
	pass := true
	for _, key := range keys {
		nsBound := maxNsRegress
		if msg := skipOnHost(key, numCPU); msg != "" {
			fmt.Fprintf(w, "benchgate: SKIP ns/op: %s\n", msg)
			nsBound = math.Inf(1)
		}
		violations := gate(baseline, current, key, nsBound, maxAllocsRegress, maxAllocs)
		for _, v := range violations {
			fmt.Fprintf(w, "benchgate: FAIL: %s\n", v)
		}
		if len(violations) > 0 {
			pass = false
			continue
		}
		fmt.Fprintf(w, "benchgate: PASS: %s\n", summarize(baseline, current, key))
	}
	return pass
}

// summarize renders the pass-side comparison for the CI log.
func summarize(baseline, current map[string]entry, key string) string {
	base, cur := baseline[key], current[key]
	allocs := "n/a"
	if cur.AllocsPerOp != nil {
		allocs = fmt.Sprintf("%d", *cur.AllocsPerOp)
	}
	ratio := 0.0
	if base.NsPerOp > 0 {
		ratio = float64(cur.NsPerOp) / float64(base.NsPerOp)
	}
	return fmt.Sprintf("%s: %d ns/op vs baseline %d (×%.2f), allocs/op %s",
		key, cur.NsPerOp, base.NsPerOp, ratio, allocs)
}
