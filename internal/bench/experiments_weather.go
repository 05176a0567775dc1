package bench

import (
	"fmt"
	"runtime"
	"time"

	"genclus/internal/core"
	"genclus/internal/datagen"
	"genclus/internal/eval"
)

// weatherSizes are the paper's sensor-count configurations: temperature
// sensors fixed at 1000, precipitation sensors swept (§5.1).
var weatherSizes = []int{250, 500, 1000}

// weatherObs are the per-sensor observation counts the paper sweeps.
var weatherObs = []int{1, 5, 20}

// weatherGrid implements Figs. 7 and 8: the {P}×{nobs} NMI grid for the
// three numeric methods.
func weatherGrid(setting int) func(Config, *Report) error {
	return func(c Config, rep *Report) error {
		ms := weatherMethods()
		rep.addf("%-18s %-6s %-10s %-16s %-10s", "configuration", "nobs", "Kmeans", "SpectralCombine", "GenClus")
		for _, numP := range weatherSizes {
			for _, numObs := range weatherObs {
				_, fits, err := weatherData(setting, numP, numObs).fitAt(c, ms...)
				if err != nil {
					return err
				}
				rep.addf("%-18s %-6d %-10.4f %-16.4f %-10.4f", fmt.Sprintf("T:1000; P:%d", numP), numObs,
					fits[0].nmi["Overall"], fits[1].nmi["Overall"], fits[2].nmi["Overall"])
				for i, m := range ms {
					rep.set(fmt.Sprintf("P=%d/nobs=%d/%s", numP, numObs, m.name), fits[i].nmi["Overall"])
				}
			}
		}
		return nil
	}
}

// table4 regenerates Table 4: <T,P> link prediction on the Setting 1
// network with T=1000, P=250 — GenClus only (the hard baselines have no
// meaningful soft memberships).
func table4(c Config, rep *Report) error {
	ds, fits, err := weatherData(1, 250, 5).fitAt(c, genClus(weatherOptions()))
	if err != nil {
		return err
	}
	return mapColumn(rep, func(sim eval.Similarity) (float64, error) {
		return eval.LinkPredictionMAP(ds.Net, fits[0].theta, datagen.RelTP, sim)
	})
}

// table5 regenerates Table 5: learned strengths per relation for the three
// network sizes (Setting 1, nobs = 5).
func table5(c Config, rep *Report) error {
	rels := []string{datagen.RelTT, datagen.RelTP, datagen.RelPT, datagen.RelPP}
	rep.addf("%-18s%s", "configuration", joinf(" %-8s", rels))
	for _, numP := range weatherSizes {
		_, fits, err := weatherData(1, numP, 5).fitAt(c, genClus(weatherOptions()))
		if err != nil {
			return err
		}
		row := fmt.Sprintf("T:1000; P:%-5d", numP)
		for _, rel := range rels {
			g := fits[0].res.Gamma[rel]
			row += fmt.Sprintf(" %-8.2f", g)
			rep.set(fmt.Sprintf("P=%d/%s", numP, rel), g)
		}
		rep.addf("%s", row)
	}
	rep.addf("paper shape: strengths of <T,P> and <P,P> drop as P gets sparser; T-typed neighbors trusted over P-typed")
	return nil
}

// fig11 regenerates the scalability figure: execution time per EM iteration
// for the three network sizes and three observation counts, both settings,
// at a fit's default width (GOMAXPROCS workers).
func fig11(c Config, rep *Report) error {
	rep.addf("%-10s %-10s %-6s %-14s", "setting", "objects", "nobs", "sec/EM-iter")
	for _, setting := range []int{1, 2} {
		for _, numP := range weatherSizes {
			for _, numObs := range weatherObs {
				ds, err := weatherData(setting, numP, numObs).gen(c, c.Seed)
				if err != nil {
					return err
				}
				secPerIter, err := timeEMIteration(ds, c.Seed, runtime.GOMAXPROCS(0))
				if err != nil {
					return err
				}
				objects := ds.Net.NumObjects()
				rep.addf("%-10d %-10d %-6d %-14.6f", setting, objects, numObs, secPerIter)
				rep.setTime(fmt.Sprintf("s%d/objects=%d/nobs=%d", setting, objects, numObs), secPerIter)
			}
		}
	}
	return nil
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

// parallel reproduces the §5.4 parallel-EM measurement: EM wall time with
// 1, 2 and 4 worker goroutines on the largest weather network. The paper
// reports a 3.19× speedup on 4×2.13 GHz cores; on a single-core host the
// ratio collapses to ~1 (documented in EXPERIMENTS.md).
func parallel(c Config, rep *Report) error {
	ds, err := weatherData(1, 1000, 5).gen(c, c.Seed)
	if err != nil {
		return err
	}
	rep.addf("%-10s %-14s %-10s", "workers", "sec/EM-iter", "speedup")
	var base float64
	for _, workers := range []int{1, 2, 4} {
		sec, err := timeEMIteration(ds, c.Seed, workers)
		if err != nil {
			return err
		}
		if workers == 1 {
			base = sec
		}
		speedup := base / sec
		rep.addf("%-10d %-14.6f %-10.2f", workers, sec, speedup)
		rep.setTime(fmt.Sprintf("workers=%d/sec", workers), sec)
		rep.setTime(fmt.Sprintf("workers=%d/speedup", workers), speedup)
	}
	return nil
}
