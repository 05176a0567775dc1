package bench

import (
	"fmt"
	"math/rand"

	"genclus/internal/core"
	"genclus/internal/datagen"
	"genclus/internal/eval"
	"genclus/internal/hin"
)

// holdout evaluates true out-of-sample link prediction on the AC network:
// 25% of the 〈A,C〉 publish_in edges (with their 〈C,A〉 mirrors) are removed
// before fitting, and memberships fitted on the remainder must rank the
// held-out venues. The paper's Tables 2–4 score reconstruction of observed
// links; this extension closes that gap.
func holdout(c Config, rep *Report) error {
	ds, err := acData.gen(c, c.Seed)
	if err != nil {
		return err
	}
	full := ds.Net
	pubRel, ok := full.RelationID(datagen.RelPublishIn)
	if !ok {
		return fmt.Errorf("bench: publish_in missing")
	}
	revRel, _ := full.RelationID(datagen.RelPublishedBy)

	rng := rand.New(rand.NewSource(c.Seed))
	heldPair := make(map[[2]int]bool)
	var held []hin.Edge
	for _, e := range full.Edges() {
		if e.Rel == pubRel && rng.Float64() < 0.25 {
			heldPair[[2]int{e.From, e.To}] = true
			held = append(held, e)
		}
	}
	if len(held) == 0 {
		return fmt.Errorf("bench: holdout selected no edges")
	}
	train, err := hin.FilterEdges(full, func(e hin.Edge) bool {
		if e.Rel == pubRel && heldPair[[2]int{e.From, e.To}] {
			return false
		}
		if e.Rel == revRel && heldPair[[2]int{e.To, e.From}] {
			return false
		}
		return true
	})
	if err != nil {
		return err
	}

	f, err := genClus(textOptions()).fit(train, ds.NumClusters, c.Seed)
	if err != nil {
		return err
	}
	rep.addf("held out %d of the publish_in edges (25%%), fitted on the rest", len(held))
	if err := mapColumn(rep, func(sim eval.Similarity) (float64, error) {
		return eval.LinkPredictionMAPHoldout(train, f.theta, datagen.RelPublishIn, held, sim)
	}); err != nil {
		return err
	}
	// Random-ranking reference for context: with R relevant among N
	// candidates, expected MAP ≈ R/N.
	rep.addf("(random-ranking MAP would be ≈ %.3f)", 1.0/float64(len(full.ObjectsOfType(datagen.TypeConf))))
	return nil
}

// selectK runs the AIC/BIC model-selection extension on the AC network,
// whose ground truth has 4 areas.
func selectK(c Config, rep *Report) error {
	ds, err := acData.gen(c, c.Seed)
	if err != nil {
		return err
	}
	opts := textOptions()
	opts.OuterIters = 5
	opts.Seed = c.Seed
	scores, err := core.SelectK(ds.Net, opts, 2, 6)
	if err != nil {
		return err
	}
	rep.addf("%-4s %-16s %-10s %-16s %-16s", "K", "loglik", "params", "AIC", "BIC")
	for _, s := range scores {
		rep.addf("%-4d %-16.1f %-10d %-16.1f %-16.1f", s.K, s.LogLik, s.Params, s.AIC, s.BIC)
		rep.set(fmt.Sprintf("K=%d/BIC", s.K), s.BIC)
		rep.set(fmt.Sprintf("K=%d/AIC", s.K), s.AIC)
		rep.set(fmt.Sprintf("K=%d/loglik", s.K), s.LogLik)
	}
	bestA, err := core.BestAIC(scores)
	if err != nil {
		return err
	}
	bestB, err := core.BestBIC(scores)
	if err != nil {
		return err
	}
	rep.addf("AIC selects K = %d; BIC selects K = %d", bestA.K, bestB.K)
	rep.addf("(BIC's ln(n) penalty over-punishes the |V|·(K−1) membership parameters;")
	rep.addf("AIC is the better-behaved criterion for this conditional likelihood)")
	rep.set("bestK", float64(bestA.K))
	rep.set("bestKBIC", float64(bestB.K))
	return nil
}
