package bench

import (
	"fmt"
	"sort"

	"genclus/internal/core"
	"genclus/internal/datagen"
	"genclus/internal/eval"
	"genclus/internal/mathx"
)

// accuracyFigure implements Figs. 5 and 6: NMI mean/std over cfg.Runs runs
// for the three text methods, sliced by object type.
func accuracyFigure(cfg Config, id, title string, gen func(seed int64) datagen.BiblioConfig, types []string) (*Report, error) {
	cfg = cfg.normalized()
	rep := newReport(id, title)
	series := make(map[string]map[string][]float64) // method → slice → values
	for _, m := range textMethods() {
		series[m.name] = make(map[string][]float64)
	}
	ds, err := datagen.Biblio(gen(cfg.Seed)) // fixed dataset, varying method seeds
	if err != nil {
		return nil, err
	}
	for run := 0; run < cfg.Runs; run++ {
		for _, m := range textMethods() {
			labels, _, err := m.run(ds, cfg.runSeed(run))
			if err != nil {
				return nil, fmt.Errorf("%s run %d: %w", m.name, run, err)
			}
			byType, err := nmiByType(ds, labels, types)
			if err != nil {
				return nil, err
			}
			for slice, v := range byType {
				series[m.name][slice] = append(series[m.name][slice], v)
			}
		}
	}
	slices := append([]string{"Overall"}, types...)
	header := fmt.Sprintf("%-14s", "method")
	for _, s := range slices {
		header += fmt.Sprintf("  %-18s", s)
	}
	rep.addf("%s", header)
	rep.addf("%s", "(each cell: NMI mean±std over "+fmt.Sprint(cfg.Runs)+" runs)")
	for _, m := range textMethods() {
		row := fmt.Sprintf("%-14s", m.name)
		for _, s := range slices {
			ms := eval.Summarize(series[m.name][s])
			row += fmt.Sprintf("  %.4f ± %.4f  ", ms.Mean, ms.Std)
			rep.set(m.name+"/"+s+"/mean", ms.Mean)
			rep.set(m.name+"/"+s+"/std", ms.Std)
		}
		rep.addf("%s", row)
	}
	return rep, nil
}

// Fig5 regenerates Fig. 5 (AC network accuracy).
func Fig5(cfg Config) (*Report, error) {
	c := cfg.normalized()
	return accuracyFigure(c, "fig5", "Clustering accuracy comparisons for AC network",
		func(seed int64) datagen.BiblioConfig { return c.acConfig(seed) },
		[]string{datagen.TypeConf, datagen.TypeAuthor})
}

// Fig6 regenerates Fig. 6 (ACP network accuracy).
func Fig6(cfg Config) (*Report, error) {
	c := cfg.normalized()
	return accuracyFigure(c, "fig6", "Clustering accuracy comparisons for ACP network",
		func(seed int64) datagen.BiblioConfig { return c.acpConfig(seed) },
		[]string{datagen.TypeConf, datagen.TypeAuthor, datagen.TypePaper})
}

// Table1 regenerates the case-study table: membership rows for archetypal
// objects after a GenClus fit on the AC network. Archetypes are picked by
// construction: one focused conference per area, the conference whose text
// spreads most evenly across areas (the "CIKM" of the synthetic corpus), a
// focused author and the author with the most even area spread (the
// "Christos Faloutsos" archetype).
func Table1(cfg Config) (*Report, error) {
	c := cfg.normalized()
	rep := newReport("table1", "Case studies of cluster membership results")
	ds, err := datagen.Biblio(c.acConfig(c.Seed))
	if err != nil {
		return nil, err
	}
	res, err := core.Fit(ds.Net, genclusOptions(ds.NumClusters, c.Seed))
	if err != nil {
		return nil, err
	}

	// Entropy of each labeled conference's membership identifies the most
	// focused venue per area and the broadest venue overall.
	type scored struct {
		v       int
		id      string
		entropy float64
		area    int
	}
	var confs []scored
	for _, v := range ds.LabeledOfType(datagen.TypeConf) {
		confs = append(confs, scored{
			v: v, id: ds.Net.Object(v).ID,
			entropy: mathx.Entropy(res.Theta[v]),
			area:    ds.Labels[v],
		})
	}
	sort.Slice(confs, func(i, j int) bool { return confs[i].entropy < confs[j].entropy })

	rep.addf("%-22s %s", "object", thetaHeader(ds.NumClusters))
	seenArea := map[int]bool{}
	for _, sc := range confs {
		if seenArea[sc.area] {
			continue
		}
		seenArea[sc.area] = true
		rep.addf("%-22s %s   (focused venue, area %d)", sc.id, thetaRow(res.Theta[sc.v]), sc.area)
	}
	broad := confs[len(confs)-1]
	rep.addf("%-22s %s   (broad venue — CIKM archetype)", broad.id, thetaRow(res.Theta[broad.v]))
	rep.set("broadVenueEntropy", broad.entropy)
	rep.set("focusedVenueEntropy", confs[0].entropy)

	var authors []scored
	for _, v := range ds.LabeledOfType(datagen.TypeAuthor) {
		authors = append(authors, scored{v: v, id: ds.Net.Object(v).ID, entropy: mathx.Entropy(res.Theta[v])})
	}
	if len(authors) > 0 {
		sort.Slice(authors, func(i, j int) bool { return authors[i].entropy < authors[j].entropy })
		foc := authors[0]
		spread := authors[len(authors)-1]
		rep.addf("%-22s %s   (focused author)", foc.id, thetaRow(res.Theta[foc.v]))
		rep.addf("%-22s %s   (multi-area author — Faloutsos archetype)", spread.id, thetaRow(res.Theta[spread.v]))
		rep.set("focusedAuthorEntropy", foc.entropy)
		rep.set("spreadAuthorEntropy", spread.entropy)
	}
	return rep, nil
}

func thetaHeader(k int) string {
	s := ""
	for i := 0; i < k; i++ {
		s += fmt.Sprintf("  cluster%-2d", i)
	}
	return s
}

func thetaRow(theta []float64) string {
	s := ""
	for _, v := range theta {
		s += fmt.Sprintf("  %8.4f ", v)
	}
	return s
}

// linkPredTable implements Tables 2 and 3.
func linkPredTable(cfg Config, id, title, relation string, gen datagen.BiblioConfig) (*Report, error) {
	c := cfg.normalized()
	rep := newReport(id, title)
	ds, err := datagen.Biblio(gen)
	if err != nil {
		return nil, err
	}
	thetas := make(map[string][][]float64)
	for _, m := range textMethods() {
		_, theta, err := m.run(ds, c.Seed)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		thetas[m.name] = theta
	}
	rep.addf("%-14s %-12s %-12s %-12s", "similarity", "NetPLSA", "iTopicModel", "GenClus")
	for _, sim := range eval.Similarities() {
		row := fmt.Sprintf("%-14s", sim.Name)
		for _, m := range textMethods() {
			mapv, err := eval.LinkPredictionMAP(ds.Net, thetas[m.name], relation, sim)
			if err != nil {
				return nil, err
			}
			row += fmt.Sprintf(" %-12.4f", mapv)
			rep.set(m.name+"/"+sim.Name, mapv)
		}
		rep.addf("%s", row)
	}
	return rep, nil
}

// Table2 regenerates Table 2: <A,C> prediction on the AC network.
func Table2(cfg Config) (*Report, error) {
	c := cfg.normalized()
	return linkPredTable(c, "table2", "Prediction accuracy (MAP) for A-C relation in AC network",
		datagen.RelPublishIn, c.acConfig(c.Seed))
}

// Table3 regenerates Table 3: <P,C> prediction on the ACP network.
func Table3(cfg Config) (*Report, error) {
	c := cfg.normalized()
	return linkPredTable(c, "table3", "Prediction accuracy (MAP) for P-C relation in ACP network",
		datagen.RelPublishedByP, c.acpConfig(c.Seed))
}

// Fig9 regenerates Fig. 9: learned strengths on both DBLP-style networks.
func Fig9(cfg Config) (*Report, error) {
	c := cfg.normalized()
	rep := newReport("fig9", "Strength for link types in the two four-area networks")

	acDS, err := datagen.Biblio(c.acConfig(c.Seed))
	if err != nil {
		return nil, err
	}
	acRes, err := core.Fit(acDS.Net, genclusOptions(acDS.NumClusters, c.Seed))
	if err != nil {
		return nil, err
	}
	rep.addf("(a) AC network:")
	for _, rel := range []string{datagen.RelPublishIn, datagen.RelPublishedBy, datagen.RelCoauthor} {
		rep.addf("  gamma(%-14s) = %8.3f", rel, acRes.Gamma[rel])
		rep.set("AC/"+rel, acRes.Gamma[rel])
	}

	acpDS, err := datagen.Biblio(c.acpConfig(c.Seed))
	if err != nil {
		return nil, err
	}
	acpRes, err := core.Fit(acpDS.Net, genclusOptions(acpDS.NumClusters, c.Seed))
	if err != nil {
		return nil, err
	}
	rep.addf("(b) ACP network:")
	for _, rel := range []string{datagen.RelWrite, datagen.RelWrittenBy, datagen.RelPublishCP, datagen.RelPublishedByP} {
		rep.addf("  gamma(%-16s) = %8.3f", rel, acpRes.Gamma[rel])
		rep.set("ACP/"+rel, acpRes.Gamma[rel])
	}
	rep.addf("paper shape: gamma(publish_in) >> gamma(coauthor); gamma(written_by P->A) >> gamma(published_by P->C)")
	return rep, nil
}

// Fig10 regenerates the typical running case: per-iteration NMI for the C
// and A types and per-iteration strengths, on the AC network.
func Fig10(cfg Config) (*Report, error) {
	c := cfg.normalized()
	rep := newReport("fig10", "A running case on AC network: iterations 0..10")
	ds, err := datagen.Biblio(c.acConfig(c.Seed))
	if err != nil {
		return nil, err
	}
	opts := genclusOptions(ds.NumClusters, c.Seed)
	opts.TrackHistory = true
	res, err := core.Fit(ds.Net, opts)
	if err != nil {
		return nil, err
	}
	rels := ds.Net.Relations()
	header := fmt.Sprintf("%-5s %-10s %-10s", "iter", "NMI(C)", "NMI(A)")
	for _, rel := range rels {
		header += fmt.Sprintf(" %-14s", "g("+rel+")")
	}
	rep.addf("%s", header)
	for _, snap := range res.History {
		pred := eval.HardLabels(snap.Theta)
		nmiC, err := eval.NMIOnSubset(ds.LabeledOfType(datagen.TypeConf), pred, ds.Labels)
		if err != nil {
			return nil, err
		}
		nmiA, err := eval.NMIOnSubset(ds.LabeledOfType(datagen.TypeAuthor), pred, ds.Labels)
		if err != nil {
			return nil, err
		}
		row := fmt.Sprintf("%-5d %-10.4f %-10.4f", snap.Iter, nmiC, nmiA)
		for r := range rels {
			row += fmt.Sprintf(" %-14.3f", snap.Gamma[r])
		}
		rep.addf("%s", row)
		rep.set(fmt.Sprintf("iter%d/NMI(C)", snap.Iter), nmiC)
		rep.set(fmt.Sprintf("iter%d/NMI(A)", snap.Iter), nmiA)
	}
	return rep, nil
}

// AblationAsym compares the paper's asymmetric out-link propagation with the
// symmetrized variant, on clustering NMI and link prediction MAP (§3.3
// argues asymmetry helps prediction).
func AblationAsym(cfg Config) (*Report, error) {
	c := cfg.normalized()
	rep := newReport("ablation-asym", "Asymmetric vs symmetrized membership propagation (AC network)")
	ds, err := datagen.Biblio(c.acConfig(c.Seed))
	if err != nil {
		return nil, err
	}
	rep.addf("%-22s %-10s %-14s", "variant", "NMI", "MAP(-H, <A,C>)")
	for _, symmetric := range []bool{false, true} {
		opts := genclusOptions(ds.NumClusters, c.Seed)
		opts.SymmetricPropagation = symmetric
		res, err := core.Fit(ds.Net, opts)
		if err != nil {
			return nil, err
		}
		byType, err := nmiByType(ds, res.HardLabels(), []string{datagen.TypeConf, datagen.TypeAuthor})
		if err != nil {
			return nil, err
		}
		sims := eval.Similarities()
		mapv, err := eval.LinkPredictionMAP(ds.Net, res.Theta, datagen.RelPublishIn, sims[2])
		if err != nil {
			return nil, err
		}
		name := "asymmetric (paper)"
		key := "asym"
		if symmetric {
			name = "symmetrized"
			key = "sym"
		}
		rep.addf("%-22s %-10.4f %-14.4f", name, byType["Overall"], mapv)
		rep.set(key+"/NMI", byType["Overall"])
		rep.set(key+"/MAP", mapv)
	}
	return rep, nil
}

// AblationGamma isolates the strength-learning contribution: learned gamma
// vs gamma frozen at 1 on the ACP network (where relation quality differs
// most: written_by is far more reliable than published_by).
func AblationGamma(cfg Config) (*Report, error) {
	c := cfg.normalized()
	rep := newReport("ablation-gamma", "Learned gamma vs fixed gamma=1 (ACP network)")
	ds, err := datagen.Biblio(c.acpConfig(c.Seed))
	if err != nil {
		return nil, err
	}
	rep.addf("%-18s %-10s %-10s %-10s %-10s", "variant", "Overall", "C", "A", "P")
	for _, learn := range []bool{true, false} {
		opts := genclusOptions(ds.NumClusters, c.Seed)
		opts.LearnGamma = learn
		res, err := core.Fit(ds.Net, opts)
		if err != nil {
			return nil, err
		}
		byType, err := nmiByType(ds, res.HardLabels(), []string{datagen.TypeConf, datagen.TypeAuthor, datagen.TypePaper})
		if err != nil {
			return nil, err
		}
		name, key := "learned (paper)", "learned"
		if !learn {
			name, key = "fixed gamma=1", "fixed"
		}
		rep.addf("%-18s %-10.4f %-10.4f %-10.4f %-10.4f",
			name, byType["Overall"], byType[datagen.TypeConf], byType[datagen.TypeAuthor], byType[datagen.TypePaper])
		rep.set(key+"/Overall", byType["Overall"])
	}
	return rep, nil
}

// AblationPrior sweeps the Gaussian prior sigma of Eq. 8.
func AblationPrior(cfg Config) (*Report, error) {
	c := cfg.normalized()
	rep := newReport("ablation-prior", "Sensitivity to the strength prior sigma (AC network)")
	ds, err := datagen.Biblio(c.acConfig(c.Seed))
	if err != nil {
		return nil, err
	}
	rep.addf("%-8s %-10s %-28s", "sigma", "NMI", "gamma(publish_in, coauthor)")
	for _, sigma := range []float64{0.01, 0.1, 1, 10} {
		opts := genclusOptions(ds.NumClusters, c.Seed)
		opts.PriorSigma = sigma
		res, err := core.Fit(ds.Net, opts)
		if err != nil {
			return nil, err
		}
		byType, err := nmiByType(ds, res.HardLabels(), []string{datagen.TypeConf, datagen.TypeAuthor})
		if err != nil {
			return nil, err
		}
		rep.addf("%-8.2f %-10.4f (%.3f, %.3f)", sigma, byType["Overall"],
			res.Gamma[datagen.RelPublishIn], res.Gamma[datagen.RelCoauthor])
		rep.set(fmt.Sprintf("sigma=%g/NMI", sigma), byType["Overall"])
		rep.set(fmt.Sprintf("sigma=%g/publish_in", sigma), res.Gamma[datagen.RelPublishIn])
	}
	return rep, nil
}
