package core

import (
	"context"
	"fmt"
	"math"

	"genclus/internal/hin"
)

// Snapshot captures the model after one outer iteration (used to regenerate
// Fig. 10: accuracy and strengths over iterations).
type Snapshot struct {
	Iter  int
	Gamma []float64
	Theta [][]float64
	G1    float64 // cluster-optimization objective after the EM step
	G2    float64 // pseudo-log-likelihood after the strength step
}

// Result is a fitted GenClus model.
type Result struct {
	// K is the number of clusters.
	K int
	// Theta is the |V|×K soft membership matrix Θ.
	Theta [][]float64
	// Gamma maps relation name → learned strength γ(r).
	Gamma map[string]float64
	// GammaVec is γ indexed by the network's dense relation ids.
	GammaVec []float64
	// Attrs holds the fitted per-attribute component models β.
	Attrs []AttrModel
	// Objective is the final g₁ value (Eq. 9).
	Objective float64
	// PseudoLL is the final g′₂ value (Eq. 14).
	PseudoLL float64
	// History has one snapshot per outer iteration when
	// Options.TrackHistory is set (Snapshot.Iter starts at 0 = initial
	// state, mirroring Fig. 10 which plots the all-one γ at iteration 0).
	History []Snapshot
	// EMIterations counts every inner EM iteration the fit executed,
	// including the best-of-seeds candidate runs — the work metric that
	// makes cold fits and warm-started refits comparable.
	EMIterations int
	// OuterIterations counts the outer alternations actually run (OuterTol
	// may stop the fit before Options.OuterIters).
	OuterIterations int
	// Precision is the storage precision the parameters were fitted under
	// (normalized — never empty on a fit result). Serializers read it so a
	// float32 fit round-trips through a snapshot in the float32 wire
	// layout without the caller re-stating the option.
	Precision Precision
	// Epsilon is the Θ floor the fit ran under (Options.Epsilon). Fold-in
	// assignment floors its posteriors at it, which reproducing the
	// training rows bit for bit requires. Zero means the fit default
	// (1e-9): a model rebuilt from state that did not record it — NewModel,
	// or a snapshot without the epsilon meta key — reads zero.
	Epsilon float64
}

// Fit runs GenClus (Algorithm 1) on the network and returns the fitted
// Model. The Model embeds the Result, so res.Theta, res.Gamma and friends
// read as before; it additionally retains enough source-network identity to
// warm-start a later fit via Model.Refit.
func Fit(net *hin.Network, opts Options) (*Model, error) {
	return FitContext(context.Background(), net, opts)
}

// FitContext is Fit with cooperative cancellation: the fit polls ctx
// between EM iterations and between the steps of the outer alternation, and
// returns ctx.Err() once it is cancelled. A cancelled fit returns no
// partial Result. Progress, when set on opts, is invoked after
// initialization and after every completed outer iteration (from the
// calling goroutine, so the callback needs no synchronization with the fit
// itself).
func FitContext(ctx context.Context, net *hin.Network, opts Options) (*Model, error) {
	if err := opts.Validate(net); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// One worker pool serves the whole fit: the seeding candidates' EM, the
	// outer alternation's EM and strength steps, and every objective
	// evaluation.
	pool := newWorkerPool(net.NumObjects(), opts)
	if pool != nil {
		defer pool.stop()
	}
	s, emTotal, g1, g1Known := initializeState(ctx, net, opts, pool)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// g₁ is evaluated at most once per model state: objective caches it
	// until runEM moves Θ and β. The strength step that moves γ runs
	// between that invalidation and the next read.
	objective := func() float64 {
		if !g1Known {
			g1, g1Known = s.objectiveG1(), true
		}
		return g1
	}
	if opts.Progress != nil {
		opts.Progress(Progress{Outer: 0, OuterTotal: opts.OuterIters, Objective: objective(), EMIterations: emTotal})
	}

	var history []Snapshot
	if opts.TrackHistory {
		history = append(history, Snapshot{
			Iter:  0,
			Gamma: append([]float64(nil), s.gamma...),
			Theta: cloneTheta(s.theta),
			G1:    objective(),
		})
	}

	var g2 float64
	outerRun := 0
	for outer := 0; outer < opts.OuterIters; outer++ {
		outerRun = outer + 1
		prevGamma := append([]float64(nil), s.gamma...)
		// Step 1: cluster optimization (EM on Θ, β with γ fixed).
		emTotal += s.runEM(opts.EMIters)
		g1Known = false
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Step 2: link-type strength learning (Newton on γ with Θ fixed).
		if opts.LearnGamma {
			g2 = s.learnStrengths()
			// Commit γ at the configured storage precision (no-op under
			// float64; the frozen-γ branch needs none — its vector was
			// rounded at initialization and never moves).
			s.roundGamma()
		} else {
			g2 = s.buildStrengthStats().pseudoLogLikelihood(s.gamma, opts.PriorSigma)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if opts.Progress != nil {
			opts.Progress(Progress{Outer: outer + 1, OuterTotal: opts.OuterIters, Objective: objective(), EMIterations: emTotal})
		}
		if opts.TrackHistory {
			history = append(history, Snapshot{
				Iter:  outer + 1,
				Gamma: append([]float64(nil), s.gamma...),
				Theta: cloneTheta(s.theta),
				G1:    objective(),
				G2:    g2,
			})
		}
		// Algorithm 1's outer "precision requirement for γ".
		if opts.OuterTol > 0 && outer > 0 {
			var move float64
			for r, g := range s.gamma {
				if d := math.Abs(g - prevGamma[r]); d > move {
					move = d
				}
			}
			if move < opts.OuterTol {
				break
			}
		}
	}

	// Validate already vetted the precision; normalize "" to float64 so the
	// result always states what it was fitted under.
	prec, _ := ParsePrecision(string(opts.Precision))
	res := &Result{
		K:               opts.K,
		Theta:           cloneTheta(s.theta),
		Gamma:           make(map[string]float64, net.NumRelations()),
		GammaVec:        append([]float64(nil), s.gamma...),
		Attrs:           s.snapshotModels(),
		Objective:       objective(),
		PseudoLL:        g2,
		History:         history,
		EMIterations:    emTotal,
		OuterIterations: outerRun,
		Precision:       prec,
		Epsilon:         opts.Epsilon,
	}
	for r := 0; r < net.NumRelations(); r++ {
		res.Gamma[net.RelationName(r)] = s.gamma[r]
	}
	ids := make([]string, net.NumObjects())
	for v := range ids {
		ids[v] = net.Object(v).ID
	}
	return &Model{Result: res, objectIDs: ids}, nil
}

// initializeState applies the §4.3 initialization policy: either a single
// random start, or best-of-seeds (run a few EM steps from several random
// starts and keep the one with the highest g₁). ctx aborts the candidate
// EM runs early; the caller notices the cancellation right after. The
// second return value counts the EM iterations spent on seeding; g1 is the
// returned state's g₁ when g1Known (best-of-seeds evaluated it to choose).
// Every candidate runs on pool (nil runs them on the calling goroutine).
func initializeState(ctx context.Context, net *hin.Network, opts Options, pool *workerPool) (best *state, emTotal int, g1 float64, g1Known bool) {
	if opts.InitSeeds <= 1 || opts.InitTheta != nil {
		s := newState(net, opts, opts.Seed, false)
		s.ctx = ctx
		s.pool = pool
		return s, 0, 0, false
	}
	bestG1 := math.Inf(-1)
	pools := make([]*gaussPool, net.NumAttrs())
	for i := 0; i < opts.InitSeeds; i++ {
		if i > 0 && ctx.Err() != nil {
			break
		}
		// Seed 0 keeps the sorted quantile seeding of Gaussian components
		// (ideal when attributes vary monotonically together); later seeds
		// permute component means per attribute to explore other pairings.
		// The candidates share the pooled, sorted observations.
		cand := newSeededState(net, opts, opts.Seed+int64(i)*1_000_003, i > 0, pools)
		cand.ctx = ctx
		cand.pool = pool
		emTotal += cand.runEM(opts.InitSeedSteps)
		candG1 := cand.objectiveG1()
		if best == nil {
			// Fallback so a NaN objective on every candidate (possible with
			// pathological numeric observations) still yields a state
			// instead of a nil dereference downstream.
			best, g1 = cand, candG1
		}
		if candG1 > bestG1 {
			bestG1 = candG1
			best, g1 = cand, candG1
		}
	}
	return best, emTotal, g1, true
}

// HardLabels converts soft memberships to argmax cluster labels.
func (r *Result) HardLabels() []int {
	out := make([]int, len(r.Theta))
	for v, row := range r.Theta {
		best := 0
		for k := 1; k < len(row); k++ {
			if row[k] > row[best] {
				best = k
			}
		}
		out[v] = best
	}
	return out
}

// MembershipOf returns the Θ row of the object with the given dense index.
func (r *Result) MembershipOf(v int) []float64 {
	if v < 0 || v >= len(r.Theta) {
		return nil
	}
	return r.Theta[v]
}

// String summarizes the fit.
func (r *Result) String() string {
	return fmt.Sprintf("GenClus(K=%d, |V|=%d, g1=%.4g, gamma=%v)", r.K, len(r.Theta), r.Objective, r.Gamma)
}
