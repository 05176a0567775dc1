package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"genclus/internal/baselines"
	"genclus/internal/core"
	"genclus/internal/datagen"
	"genclus/internal/eval"
)

// weatherSizes are the paper's sensor-count configurations: temperature
// sensors fixed at 1000, precipitation sensors swept (§5.1).
var weatherSizes = []int{250, 500, 1000}

// weatherObs are the per-sensor observation counts the paper sweeps.
var weatherObs = []int{1, 5, 20}

func (c Config) weatherConfig(setting, numP, numObs int, seed int64) datagen.WeatherConfig {
	numT := c.scaled(1000, 40)
	p := c.scaled(numP, 20)
	var cfg datagen.WeatherConfig
	if setting == 1 {
		cfg = datagen.WeatherSetting1(numT, p, numObs, seed)
	} else {
		cfg = datagen.WeatherSetting2(numT, p, numObs, seed)
	}
	return cfg
}

// weatherGrid implements Figs. 7 and 8: the {P}×{nobs} NMI grid for the
// three numeric methods.
func weatherGrid(cfg Config, id, title string, setting int) (*Report, error) {
	c := cfg.normalized()
	rep := newReport(id, title)
	rep.addf("%-18s %-6s %-10s %-16s %-10s", "configuration", "nobs", "Kmeans", "SpectralCombine", "GenClus")
	for _, numP := range weatherSizes {
		for _, numObs := range weatherObs {
			ds, err := datagen.Weather(c.weatherConfig(setting, numP, numObs, c.Seed))
			if err != nil {
				return nil, err
			}
			var labeled []int
			for v := range ds.Labels {
				labeled = append(labeled, v)
			}
			sort.Ints(labeled)

			feats, err := baselines.InterpolateNumeric(ds.Net, []string{datagen.AttrTemperature, datagen.AttrPrecipitation})
			if err != nil {
				return nil, err
			}
			kmOpts := baselines.PaperKMeansOptions(ds.NumClusters)
			kmOpts.Seed = c.Seed
			km, err := baselines.KMeans(feats, kmOpts)
			if err != nil {
				return nil, err
			}
			kmNMI, err := eval.NMIOnSubset(labeled, km.Labels, ds.Labels)
			if err != nil {
				return nil, err
			}

			stdFeats := baselines.Standardize(feats)
			spOpts := baselines.DefaultSpectralOptions(ds.NumClusters)
			spOpts.Seed = c.Seed
			sp, err := baselines.SpectralCombine(ds.Net, stdFeats, spOpts)
			if err != nil {
				return nil, err
			}
			spNMI, err := eval.NMIOnSubset(labeled, sp.Labels, ds.Labels)
			if err != nil {
				return nil, err
			}

			res, err := core.Fit(ds.Net, weatherOptions(ds.NumClusters, c.Seed))
			if err != nil {
				return nil, err
			}
			gcNMI, err := eval.NMIOnSubset(labeled, res.HardLabels(), ds.Labels)
			if err != nil {
				return nil, err
			}

			label := fmt.Sprintf("T:1000; P:%d", numP)
			rep.addf("%-18s %-6d %-10.4f %-16.4f %-10.4f", label, numObs, kmNMI, spNMI, gcNMI)
			prefix := fmt.Sprintf("P=%d/nobs=%d/", numP, numObs)
			rep.set(prefix+"Kmeans", kmNMI)
			rep.set(prefix+"Spectral", spNMI)
			rep.set(prefix+"GenClus", gcNMI)
		}
	}
	return rep, nil
}

// Fig7 regenerates Fig. 7 (weather Setting 1 grid).
func Fig7(cfg Config) (*Report, error) {
	return weatherGrid(cfg, "fig7", "Clustering accuracy comparisons for Setting 1", 1)
}

// Fig8 regenerates Fig. 8 (weather Setting 2 grid).
func Fig8(cfg Config) (*Report, error) {
	return weatherGrid(cfg, "fig8", "Clustering accuracy comparisons for Setting 2", 2)
}

// Table4 regenerates Table 4: <T,P> link prediction on the Setting 1
// network with T=1000, P=250 — GenClus only (the hard baselines have no
// meaningful soft memberships).
func Table4(cfg Config) (*Report, error) {
	c := cfg.normalized()
	rep := newReport("table4", "Prediction accuracy (MAP) for <T,P> in the weather network")
	ds, err := datagen.Weather(c.weatherConfig(1, 250, 5, c.Seed))
	if err != nil {
		return nil, err
	}
	res, err := core.Fit(ds.Net, weatherOptions(ds.NumClusters, c.Seed))
	if err != nil {
		return nil, err
	}
	rep.addf("%-14s %-10s", "similarity", "MAP")
	for _, sim := range eval.Similarities() {
		mapv, err := eval.LinkPredictionMAP(ds.Net, res.Theta, datagen.RelTP, sim)
		if err != nil {
			return nil, err
		}
		rep.addf("%-14s %-10.4f", sim.Name, mapv)
		rep.set(sim.Name, mapv)
	}
	return rep, nil
}

// Table5 regenerates Table 5: learned strengths per relation for the three
// network sizes (Setting 1, nobs = 5).
func Table5(cfg Config) (*Report, error) {
	c := cfg.normalized()
	rep := newReport("table5", "Link type strength for weather sensor network in Setting 1")
	rels := []string{datagen.RelTT, datagen.RelTP, datagen.RelPT, datagen.RelPP}
	header := fmt.Sprintf("%-18s", "configuration")
	for _, rel := range rels {
		header += fmt.Sprintf(" %-8s", rel)
	}
	rep.addf("%s", header)
	for _, numP := range weatherSizes {
		ds, err := datagen.Weather(c.weatherConfig(1, numP, 5, c.Seed))
		if err != nil {
			return nil, err
		}
		res, err := core.Fit(ds.Net, weatherOptions(ds.NumClusters, c.Seed))
		if err != nil {
			return nil, err
		}
		row := fmt.Sprintf("T:1000; P:%-5d", numP)
		for _, rel := range rels {
			row += fmt.Sprintf(" %-8.2f", res.Gamma[rel])
			rep.set(fmt.Sprintf("P=%d/%s", numP, rel), res.Gamma[rel])
		}
		rep.addf("%s", row)
	}
	rep.addf("paper shape: strengths of <T,P> and <P,P> drop as P gets sparser; T-typed neighbors trusted over P-typed")
	return rep, nil
}

// Fig11 regenerates the scalability figure: execution time per EM iteration
// for the three network sizes and three observation counts, both settings,
// at a fit's default width (GOMAXPROCS workers).
func Fig11(cfg Config) (*Report, error) {
	c := cfg.normalized()
	rep := newReport("fig11", "Scalability test over number of objects (EM time per iteration)")
	rep.addf("%-10s %-10s %-6s %-14s", "setting", "objects", "nobs", "sec/EM-iter")
	for _, setting := range []int{1, 2} {
		for _, numP := range weatherSizes {
			for _, numObs := range weatherObs {
				ds, err := datagen.Weather(c.weatherConfig(setting, numP, numObs, c.Seed))
				if err != nil {
					return nil, err
				}
				secPerIter, err := timeEMIteration(ds, c.Seed, runtime.GOMAXPROCS(0))
				if err != nil {
					return nil, err
				}
				objects := ds.Net.NumObjects()
				rep.addf("%-10d %-10d %-6d %-14.6f", setting, objects, numObs, secPerIter)
				rep.setTime(fmt.Sprintf("s%d/objects=%d/nobs=%d", setting, objects, numObs), secPerIter)
			}
		}
	}
	return rep, nil
}

// timeEMIteration measures the wall time of one EM inner iteration (the
// bottleneck component per §5.4) with the given number of EM workers, by
// timing a fixed number of iterations.
func timeEMIteration(ds *datagen.Dataset, seed int64, workers int) (float64, error) {
	const iters = 10
	opts := core.DefaultOptions(ds.NumClusters)
	opts.OuterIters = 1
	opts.EMIters = iters
	opts.InitSeeds = 1
	opts.NewtonIters = 1
	opts.Parallelism = workers
	opts.Seed = seed
	start := time.Now()
	if _, err := core.Fit(ds.Net, opts); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds() / iters, nil
}

// Parallel reproduces the §5.4 parallel-EM measurement: EM wall time with
// 1, 2 and 4 worker goroutines on the largest weather network. The paper
// reports a 3.19× speedup on 4×2.13 GHz cores; on a single-core host the
// ratio collapses to ~1 (documented in EXPERIMENTS.md).
func Parallel(cfg Config) (*Report, error) {
	c := cfg.normalized()
	rep := newReport("parallel", "Parallel EM wall time (Section 5.4)")
	ds, err := datagen.Weather(c.weatherConfig(1, 1000, 5, c.Seed))
	if err != nil {
		return nil, err
	}
	rep.addf("%-10s %-14s %-10s", "workers", "sec/EM-iter", "speedup")
	var base float64
	for _, workers := range []int{1, 2, 4} {
		sec, err := timeEMIteration(ds, c.Seed, workers)
		if err != nil {
			return nil, err
		}
		if workers == 1 {
			base = sec
		}
		speedup := base / sec
		rep.addf("%-10d %-14.6f %-10.2f", workers, sec, speedup)
		rep.setTime(fmt.Sprintf("workers=%d/sec", workers), sec)
		rep.setTime(fmt.Sprintf("workers=%d/speedup", workers), speedup)
	}
	return rep, nil
}
