// Package bench is the experiment harness: one registered experiment per
// table and figure of the paper's evaluation (§5), each printing the same
// rows/series the paper reports, plus three ablations (asymmetric
// propagation, fixed γ, prior σ) registered alongside them.
//
// The registry is the one entry point: cmd/experiments runs it, and
// TestQualityLedger diffs every report's Quality map exactly against
// testdata/quality_smoke.json. It also builds the warmed EM harness behind
// the EM-iteration, strength-step and objective benchmarks (NewEMHarness).
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"genclus/internal/baselines"
	"genclus/internal/core"
	"genclus/internal/datagen"
	"genclus/internal/eval"
)

// Config controls how experiments run. Zero values are replaced by the
// paper-faithful defaults: Scale 1, Runs 20, Seed 1.
type Config struct {
	// Scale multiplies dataset sizes. 1.0 reproduces the configuration the
	// harness was calibrated on; smaller values give quick smoke runs.
	Scale float64
	// Runs is the number of random restarts aggregated into mean/std where
	// the paper reports 20-run statistics (Figs. 5–6).
	Runs int
	// Seed is the base seed; run r uses Seed + r·10007.
	Seed int64
}

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Runs <= 0 {
		c.Runs = 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) runSeed(r int) int64 { return c.Seed + int64(r)*10007 }

// scaled applies the scale factor with a floor.
func (c Config) scaled(n int, min int) int {
	v := int(float64(n) * c.Scale)
	if v < min {
		v = min
	}
	return v
}

// Report is the outcome of one experiment: pre-formatted lines shaped like
// the paper's table/figure, plus its numbers split by whether a rerun
// reproduces them.
type Report struct {
	ID    string
	Title string
	Lines []string
	// Quality holds the deterministic results (NMI, MAP, γ, entropies,
	// model-selection scores), keyed like "GenClus/Overall/mean". The same
	// Config reproduces them bit for bit.
	Quality map[string]float64
	// Timing holds wall-clock results in seconds or ratios of them
	// (fig11's per-iteration times, parallel's speedups).
	Timing map[string]float64
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Quality: make(map[string]float64), Timing: make(map[string]float64)}
}

func (r *Report) addf(format string, args ...interface{}) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

func (r *Report) set(key string, v float64) { r.Quality[key] = v }

func (r *Report) setTime(key string, v float64) { r.Timing[key] = v }

// WriteTo renders the report.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	sb.WriteString("== " + r.ID + ": " + r.Title + " ==\n")
	for _, line := range r.Lines {
		sb.WriteString(line)
		sb.WriteString("\n")
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// Experiment couples an id with its runner.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(cfg Config) (*Report, error)
}

var registry = []Experiment{
	{ID: "fig5", Title: "Clustering accuracy on the AC network (NMI mean/std, 20 runs)",
		Description: "NetPLSA vs iTopicModel vs GenClus on the author-conference network; Overall, C, A slices", Run: Fig5},
	{ID: "fig6", Title: "Clustering accuracy on the ACP network (NMI mean/std, 20 runs)",
		Description: "NetPLSA vs iTopicModel vs GenClus on the author-conference-paper network; Overall, C, A, P slices", Run: Fig6},
	{ID: "table1", Title: "Case study: cluster memberships of archetypal venues/authors",
		Description: "Soft membership rows after a GenClus fit on the AC network", Run: Table1},
	{ID: "fig7", Title: "Weather Setting 1 accuracy grid",
		Description: "NMI for {P=250,500,1000} x {nobs=1,5,20}: Kmeans, SpectralCombine, GenClus", Run: Fig7},
	{ID: "fig8", Title: "Weather Setting 2 accuracy grid",
		Description: "Same grid as fig7 for the corner-means setting", Run: Fig8},
	{ID: "table2", Title: "Link prediction MAP for <A,C> on the AC network",
		Description: "Three similarity functions x NetPLSA/iTopicModel/GenClus", Run: Table2},
	{ID: "table3", Title: "Link prediction MAP for <P,C> on the ACP network",
		Description: "Three similarity functions x NetPLSA/iTopicModel/GenClus", Run: Table3},
	{ID: "table4", Title: "Link prediction MAP for <T,P> on the weather network",
		Description: "GenClus memberships, three similarity functions", Run: Table4},
	{ID: "fig9", Title: "Learned link-type strengths on the AC and ACP networks",
		Description: "gamma per relation after a GenClus fit", Run: Fig9},
	{ID: "table5", Title: "Weather link-type strengths vs P-sensor density",
		Description: "gamma for <T,T>,<T,P>,<P,T>,<P,P> at P=250/500/1000, nobs=5, Setting 1", Run: Table5},
	{ID: "fig10", Title: "A typical running case on the AC network",
		Description: "NMI (C and A) and gamma per outer iteration", Run: Fig10},
	{ID: "fig11", Title: "Scalability: EM time per iteration vs number of objects",
		Description: "Execution time per EM iteration for both settings, nobs=1/5/20", Run: Fig11},
	{ID: "parallel", Title: "Parallel EM speedup (Section 5.4)",
		Description: "EM wall time with 1/2/4 worker goroutines", Run: Parallel},
	{ID: "ablation-asym", Title: "Ablation: asymmetric vs symmetrized propagation",
		Description: "NMI and link-prediction MAP with and without symmetric propagation", Run: AblationAsym},
	{ID: "ablation-gamma", Title: "Ablation: learned gamma vs fixed gamma=1",
		Description: "Isolates the relation-strength learning contribution", Run: AblationGamma},
	{ID: "ablation-prior", Title: "Ablation: prior sigma sensitivity",
		Description: "NMI and strengths for sigma in {0.01, 0.1, 1, 10}", Run: AblationPrior},
	{ID: "selectk", Title: "Extension: choosing K with AIC/BIC",
		Description: "Model-selection scores for K in 2..6 on the AC network (Section 2.2 defers K selection to these criteria)", Run: SelectKDemo},
	{ID: "ext-holdout", Title: "Extension: held-out link prediction",
		Description: "25% of publish_in edges removed before fitting; MAP on the held-out links", Run: Holdout},
}

// Registry lists all experiments in paper order.
func Registry() []Experiment { return registry }

// Get returns the experiment with the given id.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared helpers ---

// acConfig returns the bibliographic AC configuration at the harness scale.
func (c Config) acConfig(seed int64) datagen.BiblioConfig {
	cfg := datagen.DefaultBiblioConfig(datagen.SchemaAC, seed)
	cfg.NumAuthors = c.scaled(cfg.NumAuthors, 60)
	cfg.NumPapers = c.scaled(cfg.NumPapers, 100)
	return cfg
}

func (c Config) acpConfig(seed int64) datagen.BiblioConfig {
	cfg := datagen.DefaultBiblioConfig(datagen.SchemaACP, seed)
	cfg.NumAuthors = c.scaled(cfg.NumAuthors, 60)
	cfg.NumPapers = c.scaled(cfg.NumPapers, 100)
	cfg.LabeledPapers = c.scaled(cfg.LabeledPapers, 20)
	return cfg
}

// genclusOptions are the fit options used across the DBLP-style experiments
// (paper: 10 outer iterations on the AC/ACP networks).
func genclusOptions(k int, seed int64) core.Options {
	opts := core.DefaultOptions(k)
	opts.OuterIters = 10
	opts.EMIters = 8
	opts.Seed = seed
	return opts
}

// weatherOptions mirror §5.2.1: iteration number 5, best-of-seeds init.
// The hard corner-means setting needs the restarts to run long enough for
// the link-consistency term to separate good component pairings from bad
// ones before g₁ selects the start, hence the deep 16×12 exploration.
func weatherOptions(k int, seed int64) core.Options {
	opts := core.DefaultOptions(k)
	opts.OuterIters = 5
	opts.EMIters = 5
	opts.InitSeeds = 16
	opts.InitSeedSteps = 12
	opts.Seed = seed
	return opts
}

// nmiByType evaluates NMI on the labeled subset of each object type plus the
// overall labeled set.
func nmiByType(ds *datagen.Dataset, pred []int, types []string) (map[string]float64, error) {
	out := make(map[string]float64, len(types)+1)
	var all []int
	for v := range ds.Labels {
		all = append(all, v)
	}
	sort.Ints(all)
	overall, err := eval.NMIOnSubset(all, pred, ds.Labels)
	if err != nil {
		return nil, err
	}
	out["Overall"] = overall
	for _, t := range types {
		objs := ds.LabeledOfType(t)
		if len(objs) == 0 {
			continue
		}
		nmi, err := eval.NMIOnSubset(objs, pred, ds.Labels)
		if err != nil {
			return nil, err
		}
		out[t] = nmi
	}
	return out, nil
}

// method is one clustering approach evaluated in the comparison figures.
type method struct {
	name string
	run  func(ds *datagen.Dataset, seed int64) ([]int, [][]float64, error)
}

func textMethods() []method {
	return []method{
		{name: "NetPLSA", run: func(ds *datagen.Dataset, seed int64) ([]int, [][]float64, error) {
			res, err := baselines.NetPLSA(ds.Net, ds.NumClusters, seed)
			if err != nil {
				return nil, nil, err
			}
			return res.Labels, res.Theta, nil
		}},
		{name: "iTopicModel", run: func(ds *datagen.Dataset, seed int64) ([]int, [][]float64, error) {
			res, err := baselines.ITopicModel(ds.Net, ds.NumClusters, seed)
			if err != nil {
				return nil, nil, err
			}
			return res.Labels, res.Theta, nil
		}},
		{name: "GenClus", run: func(ds *datagen.Dataset, seed int64) ([]int, [][]float64, error) {
			res, err := core.Fit(ds.Net, genclusOptions(ds.NumClusters, seed))
			if err != nil {
				return nil, nil, err
			}
			return res.HardLabels(), res.Theta, nil
		}},
	}
}
