// Command experiments regenerates the paper's tables and figures. Each
// experiment id corresponds to one artifact of the evaluation section;
// `experiments -list` prints the index (the internal/bench registry) and
// EXPERIMENTS.md holds recorded results.
//
// Usage:
//
//	experiments -list
//	experiments -run fig5 [-scale 1] [-runs 20] [-seed 1]
//	experiments -run all [-json FILE]
//
// -json writes the Quality values of every experiment run to FILE as one
// JSON object keyed "<id>/<key>", sorted by key, each value in Go's
// shortest round-trip float format. Timings are not written: they differ
// from run to run. This is how the quality ledger of internal/bench is
// regenerated:
//
//	experiments -run all -scale 0.06 -runs 2 -seed 5 -json internal/bench/testdata/quality_smoke.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"genclus/internal/bench"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		run     = flag.String("run", "", "experiment id to run, or 'all'")
		scale   = flag.Float64("scale", 1, "dataset size multiplier")
		runs    = flag.Int("runs", 20, "random restarts for mean/std experiments")
		seed    = flag.Int64("seed", 1, "base random seed")
		jsonOut = flag.String("json", "", "also write every run experiment's quality values, keyed <id>/<key>, to this JSON file")
	)
	flag.Parse()

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range bench.Registry() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Title)
			fmt.Printf("  %-16s   %s\n", "", e.Description)
		}
		if *run == "" && !*list {
			os.Exit(2)
		}
		return
	}

	// bench.Config would silently replace these with its defaults (full
	// scale, 20 runs, seed 1), so reject them here instead.
	if !(*scale > 0) {
		fmt.Fprintf(os.Stderr, "experiments: -scale must be > 0, got %v\n", *scale)
		os.Exit(2)
	}
	if *runs < 1 {
		fmt.Fprintf(os.Stderr, "experiments: -runs must be at least 1, got %d\n", *runs)
		os.Exit(2)
	}
	if *seed == 0 {
		fmt.Fprintln(os.Stderr, "experiments: -seed must not be 0")
		os.Exit(2)
	}
	cfg := bench.Config{Scale: *scale, Runs: *runs, Seed: *seed}
	var targets []bench.Experiment
	if *run == "all" {
		targets = bench.Registry()
	} else {
		e, ok := bench.Get(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", *run)
			os.Exit(2)
		}
		targets = []bench.Experiment{e}
	}

	quality := make(map[string]float64)
	for _, e := range targets {
		start := time.Now()
		rep, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		if _, err := rep.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		for k, v := range rep.Quality {
			quality[e.ID+"/"+k] = v
		}
		fmt.Printf("(%s completed in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	if *jsonOut != "" {
		// encoding/json sorts map keys and writes each float64 in its
		// shortest round-trip form.
		b, err := json.MarshalIndent(quality, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}
