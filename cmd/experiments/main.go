// Command experiments regenerates the paper's tables and figures. Each
// experiment id corresponds to one artifact of the evaluation section;
// `experiments -list` prints the index (the internal/bench registry) and
// EXPERIMENTS.md holds recorded results.
//
// Usage:
//
//	experiments -list
//	experiments -run fig5 [-scale 1] [-runs 20] [-seed 1]
//	experiments -run all
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"genclus/internal/bench"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list available experiments")
		run    = flag.String("run", "", "experiment id to run, or 'all'")
		scale  = flag.Float64("scale", 1, "dataset size multiplier")
		runs   = flag.Int("runs", 20, "random restarts for mean/std experiments")
		seed   = flag.Int64("seed", 1, "base random seed")
		csvDir = flag.String("csv", "", "also write <id>.csv files with the numeric results into this directory")
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
		if *csvDir != "" {
			if err := writeCSV(*csvDir, rep.ID, rep.Values); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("(%s completed in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
}

// writeCSV emits the report's machine-readable values as "key,value" rows,
// sorted by key for stable diffs.
func writeCSV(dir, id string, values map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString("key,value\n")
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s,%g\n", k, values[k])
	}
	return os.WriteFile(filepath.Join(dir, id+".csv"), []byte(sb.String()), 0o644)
}
