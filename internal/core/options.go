// Package core implements GenClus, the model-based clustering algorithm for
// heterogeneous information networks with incomplete attributes (Sun,
// Aggarwal, Han — VLDB 2012).
//
// The model (paper §3) couples two parts:
//
//   - attribute generation: every attribute on every object is a mixture
//     over the K clusters with the object's membership vector θ_v as mixing
//     proportions — categorical (PLSA-style, Eq. 3) or Gaussian (Eq. 4);
//   - structural consistency: a log-linear model over the membership
//     configuration Θ built from the cross-entropy feature function
//     f(θ_i, θ_j, e, γ) = γ(φ(e))·w(e)·Σ_k θ_jk·log θ_ik (Eq. 6), with a
//     Gaussian prior −‖γ‖²/2σ² on the per-relation strengths (Eq. 8).
//
// Fit alternates the two optimization steps of Algorithm 1: an EM pass over
// Θ and the attribute parameters β given fixed strengths γ (Eqs. 10–12), and
// a Newton–Raphson pass over γ given fixed Θ using the Dirichlet
// pseudo-likelihood (Eqs. 14–17).
package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"genclus/internal/hin"
)

// Options configures a GenClus fit. The zero value is not usable; start from
// DefaultOptions.
type Options struct {
	// K is the number of clusters. Required, ≥ 2.
	K int

	// Attributes is the user-specified attribute subset X ⊆ 𝒳 that defines
	// the clustering purpose (§2.2). Empty means "all attributes declared on
	// the network". Each name must be declared on the network and appear
	// once.
	Attributes []string

	// OuterIters is the number of outer alternations between cluster
	// optimization and strength learning (paper: 10 on DBLP, 5 on weather).
	OuterIters int

	// EMIters bounds the EM iterations inside each cluster optimization
	// step. Algorithm 1 iterates "until reaches precision requirement for
	// Θ"; EMTol implements that requirement and EMIters caps the loop.
	EMIters int

	// EMTol stops the inner EM loop early when max_v,k |θ_t − θ_{t−1}|
	// falls below it. Zero disables early stopping (fixed EMIters loops).
	EMTol float64

	// OuterTol stops the outer alternation early when ‖γ_t − γ_{t−1}‖∞
	// falls below it (Algorithm 1's "precision requirement for γ").
	// Zero disables early stopping.
	OuterTol float64

	// NewtonIters bounds the Newton–Raphson iterations inside each strength
	// learning step.
	NewtonIters int

	// NewtonTol stops the Newton iteration when ‖γ_{s} − γ_{s−1}‖∞ falls
	// below it. The iteration also stops, with no line search, when the
	// projected Newton path max(0, γ − tΔ) starts downhill.
	NewtonTol float64

	// PriorSigma is σ of the zero-mean Gaussian prior on γ (paper: 0.1).
	PriorSigma float64

	// Seed drives all randomness (initialization).
	Seed int64

	// InitSeeds > 1 enables the best-of-seeds initialization from §4.3: run
	// InitSeedSteps EM iterations from each of InitSeeds random starts and
	// keep the one with the highest objective g₁.
	InitSeeds     int
	InitSeedSteps int

	// Parallelism is the size of the worker pool a fit runs its per-object
	// work on: the E/M step (§5.4 reports a 3.19× speedup on 4 threads),
	// the strength step's statistics and g′₂/∇/H terms, and the objective
	// g₁'s per-edge and per-observation terms. Every reduction folds the
	// per-object results in a fixed order, so fits are bitwise identical at
	// any value. ≤ 1 means one worker (the calling goroutine); the pool is
	// also capped at one worker per EM reduction chunk (512 objects).
	// DefaultOptions sets it to runtime.GOMAXPROCS(0).
	Parallelism int

	// Epsilon floors every Θ entry so log θ stays finite (see
	// docs/ARCHITECTURE.md, "Numerics").
	Epsilon float64

	// Precision selects the storage precision of the learned parameters:
	// PrecisionFloat64 (the default; the empty string means the same) or
	// PrecisionFloat32, which rounds Θ/β/γ to float32 values at every point
	// the fit commits them and halves snapshot Θ/β bytes. See the Precision
	// type for the full contract. Validate rejects anything else with a
	// typed *PrecisionError.
	Precision Precision

	// SmoothEta is the Laplace smoothing added to categorical β updates.
	SmoothEta float64

	// VarFloor is the minimum Gaussian component variance.
	VarFloor float64

	// LearnGamma toggles the strength learning step. False freezes γ at the
	// initial vector — the "every relation equally important" ablation that
	// reduces GenClus to an iTopicModel-style network-regularized mixture.
	LearnGamma bool

	// InitialGamma is the uniform starting strength for every relation
	// (Algorithm 1 initializes γ⁰ as all-ones; this scales that vector).
	// Zero means 1.
	InitialGamma float64

	// SymmetricPropagation is an ablation of the feature function's
	// asymmetry (§3.3 criterion 3): when true, the Θ update propagates
	// memberships along both out-links and in-links, approximating a
	// symmetrized feature function.
	SymmetricPropagation bool

	// Note on the KL-divergence feature alternative the paper weighs in
	// §3.3: under the out-link pseudo-likelihood of §4.2 the two choices
	// provably induce the same algorithm — f_KL differs from f_CE by
	// γ·w·H(θ_j), which is constant in θ_i and therefore cancels against
	// the conditional's normalizer. The distinction only matters through
	// the intractable joint partition function Z(γ), which the paper's
	// optimization never touches. (Adding the entropy term to the
	// pseudo-likelihood WITHOUT renormalizing — the tempting shortcut —
	// creates an unnormalized bonus linear in γ and inflates every
	// strength until the prior stops it; we verified this degenerates.)
	// Hence no KL option: cross entropy is the only consistent choice in
	// this scheme, which quietly strengthens the paper's §3.3 argument.

	// TrackHistory records a per-outer-iteration snapshot of Θ and γ
	// (used to regenerate Fig. 10).
	TrackHistory bool

	// InitTheta warm-starts the membership matrix instead of random
	// initialization (|V| rows of K non-negative entries; rows are floored
	// and normalized). When set, InitSeeds is ignored.
	InitTheta [][]float64

	// InitGamma warm-starts the per-relation strengths instead of the
	// uniform InitialGamma vector. Indexed by the network's dense relation
	// ids; entries must be ≥ 0. Model.Refit populates it from a prior fit.
	InitGamma []float64

	// InitAttrs warm-starts the attribute component models. Entries are
	// matched to the network's attributes by name; an entry whose kind or
	// component count disagrees with the fit is rejected by Validate, and
	// names absent from the network are ignored (the network may have
	// dropped an attribute since the source fit). A categorical entry whose
	// vocabulary is smaller than the network's is extended with uniform
	// mass on the new terms, so warm starts survive vocabulary growth.
	InitAttrs []AttrModel

	// Progress, when non-nil, is invoked by FitContext after initialization
	// (Outer = 0) and after each completed outer iteration. It runs on the
	// fitting goroutine and must return promptly.
	Progress func(Progress)
}

// Progress is one fit progress report delivered to Options.Progress.
type Progress struct {
	// Outer counts completed outer iterations; 0 means initialization just
	// finished. OuterTotal echoes Options.OuterIters (the fit may stop
	// before reaching it when OuterTol triggers).
	Outer      int
	OuterTotal int
	// Objective is the cluster-optimization objective g₁ (Eq. 9) at this
	// point of the fit — the per-iteration convergence curve the paper plots.
	// Computing it costs one read-only pass over the data, far below the EM
	// step it reports on, and perturbs no fit state (bitwise determinism
	// holds whether or not a Progress hook is set).
	Objective float64
	// EMIterations is the cumulative count of inner EM iterations executed
	// so far, including best-of-seeds candidate runs — the work axis for the
	// objective curve.
	EMIterations int
}

// DefaultOptions mirrors the paper's experimental configuration.
func DefaultOptions(k int) Options {
	return Options{
		K:             k,
		OuterIters:    10,
		EMIters:       15,
		NewtonIters:   50,
		NewtonTol:     1e-7,
		PriorSigma:    0.1,
		Seed:          1,
		InitSeeds:     4,
		InitSeedSteps: 2,
		Parallelism:   runtime.GOMAXPROCS(0),
		Epsilon:       1e-9,
		SmoothEta:     1e-3,
		VarFloor:      1e-6,
		LearnGamma:    true,
	}
}

// Validate checks the options against the network without fitting — the
// genclusd API uses it to reject bad job submissions with a 4xx before
// anything is queued. Fit repeats the same checks.
func (o Options) Validate(net *hin.Network) error {
	if net == nil {
		return fmt.Errorf("core: nil network")
	}
	if o.K < 2 {
		return fmt.Errorf("core: K = %d, want ≥ 2", o.K)
	}
	if o.OuterIters < 1 {
		return fmt.Errorf("core: OuterIters = %d, want ≥ 1", o.OuterIters)
	}
	if o.EMIters < 1 {
		return fmt.Errorf("core: EMIters = %d, want ≥ 1", o.EMIters)
	}
	if !(o.EMTol >= 0) || !(o.OuterTol >= 0) || !(o.NewtonTol >= 0) {
		return fmt.Errorf("core: tolerances must be ≥ 0 (EMTol=%v, OuterTol=%v, NewtonTol=%v)", o.EMTol, o.OuterTol, o.NewtonTol)
	}
	if o.NewtonIters < 1 {
		return fmt.Errorf("core: NewtonIters = %d, want ≥ 1", o.NewtonIters)
	}
	if !(o.PriorSigma > 0) {
		return fmt.Errorf("core: PriorSigma = %v, want > 0", o.PriorSigma)
	}
	if !(o.Epsilon > 0) || o.Epsilon >= 1.0/float64(o.K) {
		return fmt.Errorf("core: Epsilon = %v, want in (0, 1/K)", o.Epsilon)
	}
	if _, err := ParsePrecision(string(o.Precision)); err != nil {
		return err
	}
	if !(o.SmoothEta >= 0) {
		return fmt.Errorf("core: SmoothEta = %v, want ≥ 0", o.SmoothEta)
	}
	if !(o.VarFloor > 0) {
		return fmt.Errorf("core: VarFloor = %v, want > 0", o.VarFloor)
	}
	if o.InitSeeds < 1 {
		return fmt.Errorf("core: InitSeeds = %d, want ≥ 1", o.InitSeeds)
	}
	if o.InitSeeds > 1 && o.InitSeedSteps < 1 {
		return fmt.Errorf("core: InitSeedSteps = %d with InitSeeds > 1", o.InitSeedSteps)
	}
	if !(o.InitialGamma >= 0) || math.IsInf(o.InitialGamma, 1) {
		return fmt.Errorf("core: InitialGamma = %v, want finite ≥ 0", o.InitialGamma)
	}
	for i, name := range o.Attributes {
		if _, ok := net.AttrID(name); !ok {
			return fmt.Errorf("core: attribute %q not declared on network", name)
		}
		if slices.Contains(o.Attributes[:i], name) {
			return fmt.Errorf("core: attribute %q named twice in Attributes", name)
		}
	}
	if o.InitTheta != nil {
		if len(o.InitTheta) != net.NumObjects() {
			return fmt.Errorf("core: InitTheta has %d rows for %d objects", len(o.InitTheta), net.NumObjects())
		}
		for v, row := range o.InitTheta {
			if len(row) != o.K {
				return fmt.Errorf("core: InitTheta row %d has %d entries, want K=%d", v, len(row), o.K)
			}
			for _, x := range row {
				if !(x >= 0) || math.IsInf(x, 1) {
					return fmt.Errorf("core: InitTheta row %d has entry %v, want finite ≥ 0", v, x)
				}
			}
		}
	}
	if o.InitGamma != nil {
		if len(o.InitGamma) != net.NumRelations() {
			return fmt.Errorf("core: InitGamma has %d entries for %d relations", len(o.InitGamma), net.NumRelations())
		}
		for r, g := range o.InitGamma {
			if g < 0 || math.IsNaN(g) || math.IsInf(g, 0) {
				return fmt.Errorf("core: InitGamma[%d] = %v, want finite ≥ 0", r, g)
			}
		}
	}
	for _, am := range o.InitAttrs {
		a, ok := net.AttrID(am.Name)
		if !ok {
			continue // attribute dropped from the network since the source fit
		}
		spec := net.Attr(a)
		if am.Kind != spec.Kind {
			return fmt.Errorf("core: InitAttrs[%q] is %s, network declares %s", am.Name, am.Kind, spec.Kind)
		}
		switch spec.Kind {
		case hin.Categorical:
			if am.Cat == nil || len(am.Cat.Beta) != o.K {
				return fmt.Errorf("core: InitAttrs[%q] has %d categorical components, want K=%d", am.Name, catComponents(am.Cat), o.K)
			}
			for k, row := range am.Cat.Beta {
				if len(row) == 0 || len(row) > spec.VocabSize {
					return fmt.Errorf("core: InitAttrs[%q] component %d has vocabulary %d, network declares %d", am.Name, k, len(row), spec.VocabSize)
				}
				var sum float64
				for _, p := range row {
					if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
						return fmt.Errorf("core: InitAttrs[%q] component %d has invalid term probability %v", am.Name, k, p)
					}
					sum += p
				}
				if sum <= 0 {
					return fmt.Errorf("core: InitAttrs[%q] component %d has zero total mass", am.Name, k)
				}
			}
		case hin.Numeric:
			if am.Gauss == nil || len(am.Gauss.Mu) != o.K || len(am.Gauss.Var) != o.K {
				return fmt.Errorf("core: InitAttrs[%q] has %d Gaussian components, want K=%d", am.Name, gaussComponents(am.Gauss), o.K)
			}
			for k := 0; k < o.K; k++ {
				mu, v := am.Gauss.Mu[k], am.Gauss.Var[k]
				if math.IsNaN(mu) || math.IsInf(mu, 0) {
					return fmt.Errorf("core: InitAttrs[%q] component %d has invalid mean %v", am.Name, k, mu)
				}
				if !(v > 0) || math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("core: InitAttrs[%q] component %d has invalid variance %v", am.Name, k, v)
				}
			}
		}
	}
	return nil
}

func catComponents(c *CatParams) int {
	if c == nil {
		return 0
	}
	return len(c.Beta)
}

func gaussComponents(g *GaussParams) int {
	if g == nil {
		return 0
	}
	return len(g.Mu)
}

// attrIDs resolves the attribute subset to dense ids (all attributes when
// the option is empty).
func (o Options) attrIDs(net *hin.Network) []int {
	if len(o.Attributes) == 0 {
		ids := make([]int, net.NumAttrs())
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	ids := make([]int, 0, len(o.Attributes))
	for _, name := range o.Attributes {
		id, _ := net.AttrID(name)
		ids = append(ids, id)
	}
	return ids
}
