package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// definition is BENCHMARK.json.
type definition struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

// declared is one metric of BENCHMARK.json.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadDefinition(path string) (*definition, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def definition
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &def, nil
}

// sided is one run of a compare: which commit, which pair, its record.
type sided struct {
	Side   string `json:"side"` // "parent" or "change"
	Pair   int    `json:"pair"`
	Record record `json:"record"`
}

// compareMain runs the paired protocol of README.md, "Claiming a gain":
// alternating runs of the parent and the change on the same seeds over
// every workload of BENCHMARK.json, then a verdict for every (workload,
// end-to-end metric) against its bound. It exits 1 on any regression,
// including a change that fails more requests than the parent.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	parent := fs.String("parent", "", "checkout of the parent commit")
	change := fs.String("change", ".", "checkout of the change")
	pairs := fs.Int("pairs", 10, "pairs of runs per workload (at least 10 to claim a gain)")
	seed0 := fs.Int64("seed0", 1000, "seed of the first pair; pair i uses seed0+i on both sides")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parent == "" {
		fmt.Fprintln(os.Stderr, "compare: need --parent")
		return 2
	}
	def, err := loadDefinition("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	var wls []string
	for _, w := range def.Workloads {
		wls = append(wls, w.Name)
	}
	path := filepath.Join(buildDir(), fmt.Sprintf("compare-%d.jsonl", time.Now().Unix()))
	runs, err := runPairs(*parent, *change, wls, *pairs, float64(def.RunSeconds), *seed0, path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 1
	}
	fmt.Printf("records %s\n", path)
	if err := sameHostClass(runs); err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	regressed := false
	for _, v := range verdicts(def, runs) {
		fmt.Println(v)
		regressed = regressed || v.Verdict == "regressed"
	}
	if regressed {
		return 1
	}
	return 0
}

// runPairs alternates which side runs first: pair i runs the parent first
// when i is even.
func runPairs(parent, change string, wls []string, pairs int, seconds float64, seed0 int64, path string) ([]sided, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []sided
	for _, w := range wls {
		for i := 0; i < pairs; i++ {
			order := []string{"parent", "change"}
			if i%2 == 1 {
				order = []string{"change", "parent"}
			}
			for _, side := range order {
				dir := parent
				if side == "change" {
					dir = change
				}
				rec, err := runSide(dir, w, seed0+int64(i), seconds)
				if err != nil {
					return nil, fmt.Errorf("%s %s pair %d: %w", side, w, i, err)
				}
				s := sided{Side: side, Pair: i, Record: *rec}
				line, err := json.Marshal(s)
				if err != nil {
					return nil, err
				}
				if _, err := f.Write(append(line, '\n')); err != nil {
					return nil, err
				}
				runs = append(runs, s)
				fmt.Fprintf(os.Stderr, "compare: %s %s pair %d done\n", w, side, i)
			}
		}
	}
	return runs, f.Close()
}

// runSide runs one untraced benchmark in dir and reads back its host stamp
// and result line.
func runSide(dir, workload string, seed int64, seconds float64) (*record, error) {
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	// Each side builds into its own checkout: a build directory shared
	// through the environment would let one side run the other's daemon.
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "CARGO_TARGET_DIR=") && !strings.HasPrefix(kv, "GENCLUS_BENCH_BUILD=") {
			cmd.Env = append(cmd.Env, kv)
		}
	}
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	rec := &record{Workload: workload, Seed: seed, Seconds: seconds}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for _, l := range lines {
		if h, ok := strings.CutPrefix(l, "host "); ok {
			if err := json.Unmarshal([]byte(h), &rec.Host); err != nil {
				return nil, fmt.Errorf("host line: %w", err)
			}
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if rec.Host.CPUModel == "" {
		return nil, errors.New("run printed no host stamp")
	}
	return rec, nil
}

// sameHostClass refuses to compare results measured on different kinds of
// host.
func sameHostClass(runs []sided) error {
	classes := map[string]bool{}
	for _, s := range runs {
		classes[s.Record.Host.class()] = true
	}
	if len(classes) > 1 {
		var list []string
		for c := range classes {
			list = append(list, c)
		}
		sort.Strings(list)
		return fmt.Errorf("results come from %d host classes, refusing to compare: %s", len(list), strings.Join(list, "; "))
	}
	return nil
}

// verdict is the outcome for one (workload, metric).
type verdict struct {
	Workload, Metric                  string
	ParentQ1, ParentMedian, ParentQ3  float64
	ChangeQ1, ChangeMedian, ChangeQ3  float64
	WinFraction, Worse, Spread, Bound float64
	Pairs                             int
	Verdict                           string
}

func (v verdict) String() string {
	return fmt.Sprintf("%-14s %-14s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  wins %3.0f%% of %d  worse %+6.2f%%  spread %5.2f%%  bound %4.1f%%  %s",
		v.Workload, v.Metric, v.ParentMedian, v.ParentQ1, v.ParentQ3, v.ChangeMedian, v.ChangeQ1, v.ChangeQ3,
		100*v.WinFraction, v.Pairs, 100*v.Worse, 100*v.Spread, 100*v.Bound, v.Verdict)
}

// verdicts judges every (workload, end-to-end metric):
//   - improved: over at least ten pairs, the change wins nine in ten
//     (ties count for neither) and the medians differ by more than the
//     parent's own interquartile distance;
//   - unresolved: the parent's spread is wider than the bound and the
//     change does not beat every parent run with every run of its own;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - unchanged: otherwise.
//
// Failed requests are judged per workload on the result lines' failed ÷
// attempted, summed over each side's runs: if the change's ratio is higher
// than the parent's, the workload gets a "fail_ratio" verdict of regressed,
// and none of its metrics can be improved (those that would be are
// unresolved).
func verdicts(def *definition, runs []sided) []verdict {
	type key struct{ w, m string }
	vals := map[key]map[string]map[int]float64{} // → side → pair → value
	type tally struct{ attempted, failed int }
	tallies := map[key]tally{} // (workload, side) → requests
	var wls []string
	for _, s := range runs {
		if !s.Record.Result.Correct {
			continue
		}
		if !slices.Contains(wls, s.Record.Workload) {
			wls = append(wls, s.Record.Workload)
		}
		t := tallies[key{s.Record.Workload, s.Side}]
		t.attempted += s.Record.Result.Attempted
		t.failed += s.Record.Result.Failed
		tallies[key{s.Record.Workload, s.Side}] = t
		for m, mv := range s.Record.Result.Metrics {
			k := key{s.Record.Workload, m}
			if vals[k] == nil {
				vals[k] = map[string]map[int]float64{"parent": {}, "change": {}}
			}
			vals[k][s.Side][s.Pair] = mv.Value
		}
	}
	failRatio := func(w, side string) float64 {
		if t := tallies[key{w, side}]; t.attempted > 0 {
			return float64(t.failed) / float64(t.attempted)
		}
		return 0
	}
	var out []verdict
	for _, w := range wls {
		pf, cf := failRatio(w, "parent"), failRatio(w, "change")
		moreFailures := cf > pf
		if moreFailures {
			out = append(out, verdict{
				Workload: w, Metric: "fail_ratio",
				ParentQ1: pf, ParentMedian: pf, ParentQ3: pf,
				ChangeQ1: cf, ChangeMedian: cf, ChangeQ3: cf,
				Worse: (cf - pf) / pf, Verdict: "regressed",
			})
		}
		for _, d := range def.EndToEnd {
			sides := vals[key{w, d.Name}]
			if sides == nil {
				continue
			}
			var p, c []float64
			wins := 0
			pairs := 0
			for pair, pv := range sides["parent"] {
				cv, ok := sides["change"][pair]
				if !ok {
					continue
				}
				pairs++
				p, c = append(p, pv), append(c, cv)
				if better(d.Better, cv, pv) {
					wins++
				}
			}
			if pairs < 2 {
				continue
			}
			v := verdict{Workload: w, Metric: d.Name, Pairs: pairs, Bound: d.Bound}
			v.ParentQ1, _, v.ParentQ3 = quartiles(p)
			v.ChangeQ1, _, v.ChangeQ3 = quartiles(c)
			v.ParentMedian, v.ChangeMedian = median(p), median(c)
			v.WinFraction = float64(wins) / float64(pairs)
			v.Worse = (v.ChangeMedian - v.ParentMedian) / math.Abs(v.ParentMedian)
			if d.Better == "higher" {
				v.Worse = -v.Worse
			}
			v.Spread = spread(p)
			allBetter := (d.Better == "lower" && maxOf(c) < minOf(p)) || (d.Better == "higher" && minOf(c) > maxOf(p))
			gained := pairs >= 10 && v.WinFraction >= 0.9 && math.Abs(v.ChangeMedian-v.ParentMedian) > v.ParentQ3-v.ParentQ1 && v.Worse < 0
			switch {
			case gained && moreFailures:
				v.Verdict = "unresolved"
			case gained:
				v.Verdict = "improved"
			case v.Spread > d.Bound && !allBetter:
				v.Verdict = "unresolved"
			case v.Worse > d.Bound:
				v.Verdict = "regressed"
			default:
				v.Verdict = "unchanged"
			}
			out = append(out, v)
		}
	}
	return out
}

func better(dir string, a, b float64) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// summaryMain reads result files and prints, per workload, each metric's
// median and quartiles over the runs, its spread against its bound, and
// the tracing overhead (traced minus untraced median of each end-to-end
// metric). -o writes the medians with the host stamp as a baseline file.
func summaryMain(args []string) int {
	fs := flag.NewFlagSet("summary", flag.ContinueOnError)
	out := fs.String("o", "", "write the medians and host stamp as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, err := loadDefinition("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "summary: %v\n", err)
		return 2
	}
	paths := fs.Args()
	if len(paths) == 0 {
		paths = []string{filepath.Join(buildDir(), "results")}
	}
	recs, err := readRecords(paths)
	if err != nil {
		fmt.Fprintf(os.Stderr, "summary: %v\n", err)
		return 2
	}
	var runs []sided
	for _, r := range recs {
		runs = append(runs, sided{Record: r})
	}
	if err := sameHostClass(runs); err != nil {
		fmt.Fprintf(os.Stderr, "summary: %v\n", err)
		return 2
	}
	sum := summarize(def, recs)
	for _, line := range sum.lines {
		fmt.Println(line)
	}
	if *out != "" {
		data, err := json.MarshalIndent(sum.baseline, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "summary: %v\n", err)
			return 1
		}
	}
	return 0
}

func readRecords(paths []string) ([]record, error) {
	var files []string
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if st.IsDir() {
			m, _ := filepath.Glob(filepath.Join(p, "*.json"))
			files = append(files, m...)
		} else {
			files = append(files, p)
		}
	}
	var recs []record
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !r.Smoke && r.Result.Correct {
			recs = append(recs, r)
		}
	}
	if len(recs) == 0 {
		return nil, errors.New("no full-scale correct results found")
	}
	return recs, nil
}

// stat is one metric's distribution over runs.
type stat struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

// baseline is summary's -o output.
type baseline struct {
	Host      hostStamp                             `json:"host"`
	Seeds     []int64                               `json:"seeds"`
	Seconds   float64                               `json:"seconds"`
	Workloads map[string]map[string]map[string]stat `json:"workloads"` // workload → "end_to_end"|"per_layer" → metric
}

type summaryOut struct {
	lines    []string
	baseline baseline
}

func statOf(xs []float64, unit string) stat {
	s := stat{N: len(xs), Median: median(xs), Unit: unit}
	if len(xs) >= 2 {
		s.Q1, _, s.Q3 = quartiles(xs)
	} else {
		s.Q1, s.Q3 = s.Median, s.Median
	}
	return s
}

func summarize(def *definition, recs []record) summaryOut {
	var out summaryOut
	out.baseline = baseline{Host: recs[0].Host, Workloads: map[string]map[string]map[string]stat{}}
	seeds := map[int64]bool{}
	for _, wd := range def.Workloads {
		w := wd.Name
		plain := map[string][]float64{}
		traced := map[string][]float64{}
		layer := map[string][]float64{}
		for _, r := range recs {
			if r.Workload != w {
				continue
			}
			seeds[r.Seed] = true
			out.baseline.Seconds = r.Seconds
			for m, v := range r.E2E {
				if r.Trace {
					traced[m] = append(traced[m], v)
				} else {
					plain[m] = append(plain[m], v)
				}
			}
			for m, v := range r.Layer {
				layer[m] = append(layer[m], v)
			}
		}
		wb := map[string]map[string]stat{"end_to_end": {}, "per_layer": {}}
		for _, d := range def.EndToEnd {
			xs := plain[d.Name]
			if len(xs) == 0 {
				continue
			}
			s := statOf(xs, d.Unit)
			wb["end_to_end"][d.Name] = s
			sp := spread(xs)
			status := "steady (< bound/3)"
			switch {
			case sp >= d.Bound:
				status = "TOO NOISY (≥ bound)"
			case sp >= d.Bound/3:
				status = "within bound"
			}
			line := fmt.Sprintf("%-14s %-16s n=%2d median %12.4f %-5s q1 %12.4f q3 %12.4f spread %6.2f%% bound %5.1f%%  %s",
				w, d.Name, s.N, s.Median, d.Unit, s.Q1, s.Q3, 100*sp, 100*d.Bound, status)
			if tx := traced[d.Name]; len(tx) > 0 {
				line += fmt.Sprintf("  tracing overhead %+.2f%%", 100*(median(tx)-s.Median)/math.Abs(s.Median))
			}
			out.lines = append(out.lines, line)
		}
		for _, d := range def.PerLayer {
			if xs := layer[d.Name]; len(xs) > 0 {
				s := statOf(xs, d.Unit)
				wb["per_layer"][d.Name] = s
				out.lines = append(out.lines, fmt.Sprintf("%-14s %-32s n=%2d median %12.4f %s", w, d.Name, s.N, s.Median, d.Unit))
			}
		}
		if len(wb["end_to_end"])+len(wb["per_layer"]) > 0 {
			out.baseline.Workloads[w] = wb
		}
	}
	for s := range seeds {
		out.baseline.Seeds = append(out.baseline.Seeds, s)
	}
	sort.Slice(out.baseline.Seeds, func(i, j int) bool { return out.baseline.Seeds[i] < out.baseline.Seeds[j] })
	return out
}
