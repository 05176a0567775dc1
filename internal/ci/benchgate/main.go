package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// keyList is the repeatable -key flag.
type keyList []string

func (k *keyList) String() string { return strings.Join(*k, ",") }

func (k *keyList) Set(key string) error {
	*k = append(*k, key)
	return nil
}

func main() {
	var keys keyList
	flag.Var(&keys, "key", "benchmark entry to gate (repeatable; at least one)")
	var (
		baselinePath = flag.String("baseline", "", "committed BENCH_fit.json to compare against (required)")
		currentPath  = flag.String("current", "BENCH_fit.json", "freshly regenerated BENCH_fit.json")
		maxNsRegress = flag.Float64("max-ns-regress", 0.25, "maximum allowed fractional ns/op regression")
		maxAllocs    = flag.Int64("max-allocs", -1, "absolute allocs/op ceiling on the current run (-1 disables; 0 pins zero-alloc)")
		// Allocation counts of a path that fills Go maps can move by a few
		// from run to run and between Go versions (map growth depends on
		// hash seeds and the map implementation).
		maxAllocsRegress = flag.Float64("max-allocs-regress", 0, "maximum allowed fractional allocs/op increase (0: any increase fails)")
	)
	flag.Parse()
	if *baselinePath == "" || len(keys) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline and at least one -key are required")
		os.Exit(2)
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
	if !gateKeys(os.Stdout, baseline, current, keys, *maxNsRegress, *maxAllocsRegress, *maxAllocs, runtime.NumCPU()) {
		os.Exit(1)
	}
}
