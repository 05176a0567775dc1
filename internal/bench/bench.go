// Package bench is the experiment harness: one registered experiment per
// table and figure of the paper's evaluation (§5), each printing the same
// rows/series the paper reports, plus three ablations (asymmetric
// propagation, fixed γ, prior σ) and two extensions (AIC/BIC, held-out
// links).
//
// An experiment is a declaration over three pieces. A dataset builds AC,
// ACP or a weather network at a Config and a seed and names its labelled
// types. A method fits a network: a text or weather baseline, or GenClus
// under given options. The one scorer, nmiByType, gives NMI per labelled
// type and Overall, and runMethods is the one loop that fits and scores.
// Each registry entry states its id, title and description once; Run
// normalises the Config and titles the report from them.
//
// The registry is the one entry point: cmd/experiments runs it, and
// TestQualityLedger diffs every report's Quality map exactly against
// testdata/quality_smoke.json. The package also builds the warmed EM harness
// behind the EM-iteration, strength-step and objective benchmarks
// (NewEMHarness).
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
	"genclus/internal/hin"
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

// joinf formats each value with format and concatenates the results: the
// repeated cells of a table row.
func joinf[T any](format string, vals []T) string {
	var sb strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&sb, format, v)
	}
	return sb.String()
}

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

// Experiment is one registered artifact: its id, title and description,
// and the body that fills its report.
type Experiment struct {
	ID          string
	Title       string
	Description string
	run         func(c Config, rep *Report) error
}

// Run runs the experiment at cfg, whose zero fields take the defaults, and
// returns its report under the experiment's id and title.
func (e Experiment) Run(cfg Config) (*Report, error) {
	rep := newReport(e.ID, e.Title)
	if err := e.run(cfg.normalized(), rep); err != nil {
		return nil, err
	}
	return rep, nil
}

var registry = []Experiment{
	{ID: "fig5", Title: "Clustering accuracy on the AC network (NMI mean/std, 20 runs)",
		Description: "NetPLSA vs iTopicModel vs GenClus on the author-conference network; Overall, C, A slices", run: accuracyFigure(acData)},
	{ID: "fig6", Title: "Clustering accuracy on the ACP network (NMI mean/std, 20 runs)",
		Description: "NetPLSA vs iTopicModel vs GenClus on the author-conference-paper network; Overall, C, A, P slices", run: accuracyFigure(acpData)},
	{ID: "table1", Title: "Case study: cluster memberships of archetypal venues/authors",
		Description: "Soft membership rows after a GenClus fit on the AC network", run: table1},
	{ID: "fig7", Title: "Weather Setting 1 accuracy grid",
		Description: "NMI for {P=250,500,1000} x {nobs=1,5,20}: Kmeans, SpectralCombine, GenClus", run: weatherGrid(1)},
	{ID: "fig8", Title: "Weather Setting 2 accuracy grid",
		Description: "Same grid as fig7 for the corner-means setting", run: weatherGrid(2)},
	{ID: "table2", Title: "Link prediction MAP for <A,C> on the AC network",
		Description: "Three similarity functions x NetPLSA/iTopicModel/GenClus", run: linkPredTable(acData, datagen.RelPublishIn)},
	{ID: "table3", Title: "Link prediction MAP for <P,C> on the ACP network",
		Description: "Three similarity functions x NetPLSA/iTopicModel/GenClus", run: linkPredTable(acpData, datagen.RelPublishedByP)},
	{ID: "table4", Title: "Link prediction MAP for <T,P> on the weather network",
		Description: "GenClus memberships, three similarity functions", run: table4},
	{ID: "fig9", Title: "Learned link-type strengths on the AC and ACP networks",
		Description: "gamma per relation after a GenClus fit", run: fig9},
	{ID: "table5", Title: "Weather link-type strengths vs P-sensor density",
		Description: "gamma for <T,T>,<T,P>,<P,T>,<P,P> at P=250/500/1000, nobs=5, Setting 1", run: table5},
	{ID: "fig10", Title: "A typical running case on the AC network",
		Description: "NMI (C and A) and gamma per outer iteration", run: fig10},
	{ID: "fig11", Title: "Scalability: EM time per iteration vs number of objects",
		Description: "Execution time per EM iteration for both settings, nobs=1/5/20", run: fig11},
	{ID: "parallel", Title: "Parallel EM speedup (Section 5.4)",
		Description: "EM wall time with 1/2/4 worker goroutines", run: parallel},
	{ID: "ablation-asym", Title: "Ablation: asymmetric vs symmetrized propagation",
		Description: "NMI and link-prediction MAP with and without symmetric propagation", run: ablationAsym.run},
	{ID: "ablation-gamma", Title: "Ablation: learned gamma vs fixed gamma=1",
		Description: "Isolates the relation-strength learning contribution", run: ablationGamma.run},
	{ID: "ablation-prior", Title: "Ablation: prior sigma sensitivity",
		Description: "NMI and strengths for sigma in {0.01, 0.1, 1, 10}", run: ablationPrior.run},
	{ID: "selectk", Title: "Extension: choosing K with AIC/BIC",
		Description: "Model-selection scores for K in 2..6 on the AC network (Section 2.2 defers K selection to these criteria)", run: selectK},
	{ID: "ext-holdout", Title: "Extension: held-out link prediction",
		Description: "25% of publish_in edges removed before fitting; MAP on the held-out links", run: holdout},
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

// --- datasets ---

// dataset is one of the paper's generated networks: its generator at a
// Config's scale and a seed, and the labelled types nmiByType scores one by
// one besides Overall.
type dataset struct {
	gen   func(c Config, seed int64) (*datagen.Dataset, error)
	types []string
}

var (
	acData  = biblioData(datagen.SchemaAC, datagen.TypeConf, datagen.TypeAuthor)
	acpData = biblioData(datagen.SchemaACP, datagen.TypeConf, datagen.TypeAuthor, datagen.TypePaper)
)

// biblioData is the DBLP-style network of the given schema, its authors and
// papers scaled (and, on ACP, its labelled papers).
func biblioData(schema datagen.Schema, types ...string) dataset {
	return dataset{types: types, gen: func(c Config, seed int64) (*datagen.Dataset, error) {
		cfg := datagen.DefaultBiblioConfig(schema, seed)
		cfg.NumAuthors = c.scaled(cfg.NumAuthors, 60)
		cfg.NumPapers = c.scaled(cfg.NumPapers, 100)
		if schema == datagen.SchemaACP {
			cfg.LabeledPapers = c.scaled(cfg.LabeledPapers, 20)
		}
		return datagen.Biblio(cfg)
	}}
}

// weatherData is the sensor network of the given setting with 1000
// temperature and numP precipitation sensors (both scaled), numObs
// readings each. Its figures score all sensors together, so it names no
// types.
func weatherData(setting, numP, numObs int) dataset {
	return dataset{gen: func(c Config, seed int64) (*datagen.Dataset, error) {
		gen := datagen.WeatherSetting1
		if setting == 2 {
			gen = datagen.WeatherSetting2
		}
		return datagen.Weather(gen(c.scaled(1000, 40), c.scaled(numP, 20), numObs, seed))
	}}
}

// fitAt builds d at c.Seed and runs each method on it at the same seed.
func (d dataset) fitAt(c Config, ms ...method) (*datagen.Dataset, []*fitted, error) {
	ds, err := d.gen(c, c.Seed)
	if err != nil {
		return nil, nil, err
	}
	fits, err := runMethods(ds, d.types, ms, c.Seed)
	return ds, fits, err
}

// --- methods ---

// method is one clustering approach: it fits a network with K clusters at
// a seed.
type method struct {
	name string
	fit  func(net *hin.Network, k int, seed int64) (*fitted, error)
}

// fitted is one method's clustering of a network.
type fitted struct {
	labels []int
	theta  [][]float64
	res    *core.Result       // GenClus fits only
	nmi    map[string]float64 // nmiByType of labels; set by runMethods
}

// runMethods fits each method on ds at seed, in order, and scores each
// fit's hard labels by type.
func runMethods(ds *datagen.Dataset, types []string, ms []method, seed int64) ([]*fitted, error) {
	fits := make([]*fitted, len(ms))
	for i, m := range ms {
		f, err := m.fit(ds.Net, ds.NumClusters, seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		if f.nmi, err = nmiByType(ds, f.labels, types); err != nil {
			return nil, err
		}
		fits[i] = f
	}
	return fits, nil
}

// genClus fits GenClus with opts, K and Seed set per fit.
func genClus(opts core.Options) method {
	return method{name: "GenClus", fit: func(net *hin.Network, k int, seed int64) (*fitted, error) {
		o := opts
		o.K, o.Seed = k, seed
		res, err := core.Fit(net, o)
		if err != nil {
			return nil, err
		}
		return &fitted{labels: res.HardLabels(), theta: res.Theta, res: res.Result}, nil
	}}
}

// textOptions are GenClus's options on the AC and ACP networks (paper: 10
// outer iterations); genClus sets K and Seed per fit.
func textOptions() core.Options {
	opts := core.DefaultOptions(0)
	opts.OuterIters = 10
	opts.EMIters = 8
	return opts
}

// weatherOptions mirror §5.2.1: iteration number 5, best-of-seeds init.
// The hard corner-means setting needs the restarts to run long enough for
// the link-consistency term to separate good component pairings from bad
// ones before g₁ selects the start, hence the deep 16×12 exploration.
func weatherOptions() core.Options {
	opts := core.DefaultOptions(0)
	opts.OuterIters = 5
	opts.EMIters = 5
	opts.InitSeeds = 16
	opts.InitSeedSteps = 12
	return opts
}

// baseline turns a baseline's result into a fit.
func baseline(r *baselines.Result, err error) (*fitted, error) {
	if err != nil {
		return nil, err
	}
	return &fitted{labels: r.Labels, theta: r.Theta}, nil
}

// textMethods are the methods Figs. 5–6 and Tables 2–3 compare.
func textMethods() []method {
	return []method{
		{name: "NetPLSA", fit: func(net *hin.Network, k int, seed int64) (*fitted, error) {
			return baseline(baselines.NetPLSA(net, k, seed))
		}},
		{name: "iTopicModel", fit: func(net *hin.Network, k int, seed int64) (*fitted, error) {
			return baseline(baselines.ITopicModel(net, k, seed))
		}},
		genClus(textOptions()),
	}
}

// weatherAttrs are the readings the weather baselines interpolate.
var weatherAttrs = []string{datagen.AttrTemperature, datagen.AttrPrecipitation}

// weatherMethods are the methods Figs. 7–8 compare: K-means on each
// sensor's interpolated readings, SpectralCombine on the same readings
// standardised, and GenClus.
func weatherMethods() []method {
	return []method{
		{name: "Kmeans", fit: func(net *hin.Network, k int, seed int64) (*fitted, error) {
			feats, err := baselines.InterpolateNumeric(net, weatherAttrs)
			if err != nil {
				return nil, err
			}
			opts := baselines.PaperKMeansOptions(k)
			opts.Seed = seed
			return baseline(baselines.KMeans(feats, opts))
		}},
		{name: "Spectral", fit: func(net *hin.Network, k int, seed int64) (*fitted, error) {
			feats, err := baselines.InterpolateNumeric(net, weatherAttrs)
			if err != nil {
				return nil, err
			}
			return baseline(baselines.SpectralCombine(net, baselines.Standardize(feats), k, seed))
		}},
		genClus(weatherOptions()),
	}
}

// --- the scorer ---

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

// mapColumn adds a one-column MAP table, one row per similarity function,
// each keyed by the function's name.
func mapColumn(rep *Report, score func(sim eval.Similarity) (float64, error)) error {
	rep.addf("%-14s %-10s", "similarity", "MAP")
	for _, sim := range eval.Similarities() {
		mapv, err := score(sim)
		if err != nil {
			return err
		}
		rep.addf("%-14s %-10.4f", sim.Name, mapv)
		rep.set(sim.Name, mapv)
	}
	return nil
}
