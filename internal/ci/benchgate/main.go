package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "", "committed BENCH_fit.json to compare against (required)")
		currentPath  = flag.String("current", "BENCH_fit.json", "freshly regenerated BENCH_fit.json")
		key          = flag.String("key", "em-iteration/midsize", "benchmark entry to gate")
		maxNsRegress = flag.Float64("max-ns-regress", 0.25, "maximum allowed fractional ns/op regression")
		maxAllocs    = flag.Int64("max-allocs", -1, "absolute allocs/op ceiling on the current run (-1 disables; 0 pins zero-alloc)")
		// Allocation counts of a path that fills Go maps can move by a few
		// from run to run and between Go versions (map growth depends on
		// hash seeds and the map implementation).
		maxAllocsRegress = flag.Float64("max-allocs-regress", 0, "maximum allowed fractional allocs/op increase (0: any increase fails)")
	)
	flag.Parse()
	if *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline is required")
		os.Exit(2)
	}
	if msg := skipOnHost(*key, runtime.NumCPU()); msg != "" {
		fmt.Printf("benchgate: SKIP ns/op: %s\n", msg)
		*maxNsRegress = math.Inf(1)
	}
	baseline, err := loadEntries(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	current, err := loadEntries(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	violations := gate(baseline, current, *key, *maxNsRegress, *maxAllocsRegress, *maxAllocs)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: PASS: %s\n", summarize(baseline, current, *key))
}
