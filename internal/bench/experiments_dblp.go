package bench

import (
	"fmt"
	"sort"

	"genclus/internal/core"
	"genclus/internal/datagen"
	"genclus/internal/eval"
	"genclus/internal/mathx"
)

// accuracyFigure implements Figs. 5 and 6: NMI mean/std over c.Runs method
// seeds for the three text methods on one dataset, sliced by labelled type.
func accuracyFigure(d dataset) func(Config, *Report) error {
	return func(c Config, rep *Report) error {
		ds, err := d.gen(c, c.Seed) // fixed dataset, varying method seeds
		if err != nil {
			return err
		}
		ms := textMethods()
		series := make(map[string][]float64) // "method/slice" → values
		for run := 0; run < c.Runs; run++ {
			fits, err := runMethods(ds, d.types, ms, c.runSeed(run))
			if err != nil {
				return fmt.Errorf("run %d: %w", run, err)
			}
			for i, f := range fits {
				for slice, v := range f.nmi {
					series[ms[i].name+"/"+slice] = append(series[ms[i].name+"/"+slice], v)
				}
			}
		}
		slices := append([]string{"Overall"}, d.types...)
		rep.addf("%-14s%s", "method", joinf("  %-18s", slices))
		rep.addf("(each cell: NMI mean±std over %d runs)", c.Runs)
		for _, m := range ms {
			row := fmt.Sprintf("%-14s", m.name)
			for _, s := range slices {
				sum := eval.Summarize(series[m.name+"/"+s])
				row += fmt.Sprintf("  %.4f ± %.4f  ", sum.Mean, sum.Std)
				rep.set(m.name+"/"+s+"/mean", sum.Mean)
				rep.set(m.name+"/"+s+"/std", sum.Std)
			}
			rep.addf("%s", row)
		}
		return nil
	}
}

// table1 regenerates the case-study table: membership rows for archetypal
// objects after a GenClus fit on the AC network. Archetypes are picked by
// construction: one focused conference per area, the conference whose text
// spreads most evenly across areas (the "CIKM" of the synthetic corpus), a
// focused author and the author with the most even area spread (the
// "Christos Faloutsos" archetype).
func table1(c Config, rep *Report) error {
	ds, fits, err := acData.fitAt(c, genClus(textOptions()))
	if err != nil {
		return err
	}
	theta := fits[0].theta

	// The entropy of each labeled object's membership identifies the most
	// focused and the broadest objects of its type.
	type scored struct {
		v       int
		id      string
		entropy float64
		area    int
	}
	byEntropy := func(objType string) []scored {
		var out []scored
		for _, v := range ds.LabeledOfType(objType) {
			out = append(out, scored{v: v, id: ds.Net.Object(v).ID, entropy: mathx.Entropy(theta[v]), area: ds.Labels[v]})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].entropy < out[j].entropy })
		return out
	}
	confs := byEntropy(datagen.TypeConf)

	rep.addf("%-22s %s", "object", thetaHeader(ds.NumClusters))
	seenArea := map[int]bool{}
	for _, sc := range confs {
		if seenArea[sc.area] {
			continue
		}
		seenArea[sc.area] = true
		rep.addf("%-22s %s   (focused venue, area %d)", sc.id, thetaRow(theta[sc.v]), sc.area)
	}
	broad := confs[len(confs)-1]
	rep.addf("%-22s %s   (broad venue — CIKM archetype)", broad.id, thetaRow(theta[broad.v]))
	rep.set("broadVenueEntropy", broad.entropy)
	rep.set("focusedVenueEntropy", confs[0].entropy)

	if authors := byEntropy(datagen.TypeAuthor); len(authors) > 0 {
		foc := authors[0]
		spread := authors[len(authors)-1]
		rep.addf("%-22s %s   (focused author)", foc.id, thetaRow(theta[foc.v]))
		rep.addf("%-22s %s   (multi-area author — Faloutsos archetype)", spread.id, thetaRow(theta[spread.v]))
		rep.set("focusedAuthorEntropy", foc.entropy)
		rep.set("spreadAuthorEntropy", spread.entropy)
	}
	return nil
}

func thetaHeader(k int) string {
	s := ""
	for i := 0; i < k; i++ {
		s += fmt.Sprintf("  cluster%-2d", i)
	}
	return s
}

func thetaRow(theta []float64) string { return joinf("  %8.4f ", theta) }

// linkPredTable implements Tables 2 and 3: MAP of the three text methods'
// memberships on one relation of d, per similarity function.
func linkPredTable(d dataset, relation string) func(Config, *Report) error {
	return func(c Config, rep *Report) error {
		ms := textMethods()
		ds, fits, err := d.fitAt(c, ms...)
		if err != nil {
			return err
		}
		rep.addf("%-14s %-12s %-12s %-12s", "similarity", "NetPLSA", "iTopicModel", "GenClus")
		for _, sim := range eval.Similarities() {
			row := fmt.Sprintf("%-14s", sim.Name)
			for i, m := range ms {
				mapv, err := eval.LinkPredictionMAP(ds.Net, fits[i].theta, relation, sim)
				if err != nil {
					return err
				}
				row += fmt.Sprintf(" %-12.4f", mapv)
				rep.set(m.name+"/"+sim.Name, mapv)
			}
			rep.addf("%s", row)
		}
		return nil
	}
}

// fig9 regenerates Fig. 9: learned strengths on both DBLP-style networks.
func fig9(c Config, rep *Report) error {
	for _, part := range []struct {
		heading, key string
		data         dataset
		rels         []string
		width        int
	}{
		{"(a) AC network:", "AC", acData, []string{datagen.RelPublishIn, datagen.RelPublishedBy, datagen.RelCoauthor}, 14},
		{"(b) ACP network:", "ACP", acpData, []string{datagen.RelWrite, datagen.RelWrittenBy, datagen.RelPublishCP, datagen.RelPublishedByP}, 16},
	} {
		_, fits, err := part.data.fitAt(c, genClus(textOptions()))
		if err != nil {
			return err
		}
		rep.addf("%s", part.heading)
		for _, rel := range part.rels {
			g := fits[0].res.Gamma[rel]
			rep.addf("  gamma(%-*s) = %8.3f", part.width, rel, g)
			rep.set(part.key+"/"+rel, g)
		}
	}
	rep.addf("paper shape: gamma(publish_in) >> gamma(coauthor); gamma(written_by P->A) >> gamma(published_by P->C)")
	return nil
}

// fig10 regenerates the typical running case: per-iteration NMI for the C
// and A types and per-iteration strengths, on the AC network.
func fig10(c Config, rep *Report) error {
	opts := textOptions()
	opts.TrackHistory = true
	ds, fits, err := acData.fitAt(c, genClus(opts))
	if err != nil {
		return err
	}
	rels := ds.Net.Relations()
	header := fmt.Sprintf("%-5s %-10s %-10s", "iter", "NMI(C)", "NMI(A)")
	for _, rel := range rels {
		header += fmt.Sprintf(" %-14s", "g("+rel+")")
	}
	rep.addf("%s", header)
	for _, snap := range fits[0].res.History {
		byType, err := nmiByType(ds, eval.HardLabels(snap.Theta), acData.types)
		if err != nil {
			return err
		}
		nmiC, nmiA := byType[datagen.TypeConf], byType[datagen.TypeAuthor]
		rep.addf("%-5d %-10.4f %-10.4f%s", snap.Iter, nmiC, nmiA, joinf(" %-14.3f", snap.Gamma))
		rep.set(fmt.Sprintf("iter%d/NMI(C)", snap.Iter), nmiC)
		rep.set(fmt.Sprintf("iter%d/NMI(A)", snap.Iter), nmiA)
	}
	return nil
}

// ablation compares GenClus fits on one dataset under named edits of the
// text options, one row per edit.
type ablation struct {
	data     dataset
	header   string
	variants []variant
	row      func(rep *Report, ds *datagen.Dataset, v variant, f *fitted) error
}

// variant is one named edit of the GenClus options; key prefixes its
// quality values.
type variant struct {
	name, key string
	edit      func(*core.Options)
}

func (a ablation) run(c Config, rep *Report) error {
	ms := make([]method, len(a.variants))
	for i, v := range a.variants {
		opts := textOptions()
		v.edit(&opts)
		ms[i] = genClus(opts)
	}
	ds, fits, err := a.data.fitAt(c, ms...)
	if err != nil {
		return err
	}
	rep.addf("%s", a.header)
	for i, v := range a.variants {
		if err := a.row(rep, ds, v, fits[i]); err != nil {
			return err
		}
	}
	return nil
}

// ablationAsym compares the paper's asymmetric out-link propagation with
// the symmetrized variant, on clustering NMI and link prediction MAP (§3.3
// argues asymmetry helps prediction).
var ablationAsym = ablation{
	data:   acData,
	header: fmt.Sprintf("%-22s %-10s %-14s", "variant", "NMI", "MAP(-H, <A,C>)"),
	variants: []variant{
		{"asymmetric (paper)", "asym", func(o *core.Options) { o.SymmetricPropagation = false }},
		{"symmetrized", "sym", func(o *core.Options) { o.SymmetricPropagation = true }},
	},
	row: func(rep *Report, ds *datagen.Dataset, v variant, f *fitted) error {
		mapv, err := eval.LinkPredictionMAP(ds.Net, f.theta, datagen.RelPublishIn, eval.Similarities()[2])
		if err != nil {
			return err
		}
		rep.addf("%-22s %-10.4f %-14.4f", v.name, f.nmi["Overall"], mapv)
		rep.set(v.key+"/NMI", f.nmi["Overall"])
		rep.set(v.key+"/MAP", mapv)
		return nil
	},
}

// ablationGamma isolates the strength-learning contribution: learned gamma
// vs gamma frozen at 1 on the ACP network (where relation quality differs
// most: written_by is far more reliable than published_by).
var ablationGamma = ablation{
	data:   acpData,
	header: fmt.Sprintf("%-18s %-10s %-10s %-10s %-10s", "variant", "Overall", "C", "A", "P"),
	variants: []variant{
		{"learned (paper)", "learned", func(o *core.Options) { o.LearnGamma = true }},
		{"fixed gamma=1", "fixed", func(o *core.Options) { o.LearnGamma = false }},
	},
	row: func(rep *Report, _ *datagen.Dataset, v variant, f *fitted) error {
		rep.addf("%-18s %-10.4f %-10.4f %-10.4f %-10.4f",
			v.name, f.nmi["Overall"], f.nmi[datagen.TypeConf], f.nmi[datagen.TypeAuthor], f.nmi[datagen.TypePaper])
		rep.set(v.key+"/Overall", f.nmi["Overall"])
		return nil
	},
}

// ablationPrior sweeps the Gaussian prior sigma of Eq. 8 on the AC network.
var ablationPrior = ablation{
	data:     acData,
	header:   fmt.Sprintf("%-8s %-10s %-28s", "sigma", "NMI", "gamma(publish_in, coauthor)"),
	variants: []variant{sigmaVariant(0.01), sigmaVariant(0.1), sigmaVariant(1), sigmaVariant(10)},
	row: func(rep *Report, _ *datagen.Dataset, v variant, f *fitted) error {
		rep.addf("%-8s %-10.4f (%.3f, %.3f)", v.name, f.nmi["Overall"],
			f.res.Gamma[datagen.RelPublishIn], f.res.Gamma[datagen.RelCoauthor])
		rep.set(v.key+"/NMI", f.nmi["Overall"])
		rep.set(v.key+"/publish_in", f.res.Gamma[datagen.RelPublishIn])
		return nil
	},
}

// sigmaVariant sets the strength prior's σ.
func sigmaVariant(sigma float64) variant {
	return variant{fmt.Sprintf("%.2f", sigma), fmt.Sprintf("sigma=%g", sigma),
		func(o *core.Options) { o.PriorSigma = sigma }}
}
