package core

import (
	"genclus/internal/hin"
)

// EMHarness wraps a fully-initialized fitting state and exposes single EM
// iterations, strength steps and objective evaluations — the benchmarking
// hook for the hot paths (internal/bench; BenchmarkEMIteration,
// BenchmarkStrengthStep and BenchmarkObjective drive it). It is not part of the fitting API: Fit owns the outer alternation;
// the harness only exists so a benchmark can measure one steady-state E+M
// pass or strength step without timing initialization.
type EMHarness struct {
	s      *state
	gamma0 []float64 // γ every RunStrengthStep starts from
}

// NewEMHarness validates opts against net and prepares a fitting state
// exactly as a single-seed Fit would (in-link view materialized, scratch
// sized). When opts.Parallelism > 1 the harness starts a persistent worker
// pool so parallel iterations dispatch without spawning goroutines — call
// Close when done with the harness to stop it. Warm-up: the first
// RunIteration allocates the per-chunk accumulators; every later one is
// allocation-free (at any Parallelism).
func NewEMHarness(net *hin.Network, opts Options) (*EMHarness, error) {
	if err := opts.Validate(net); err != nil {
		return nil, err
	}
	s := newState(net, opts, opts.Seed, false)
	s.pool = newWorkerPool(net.NumObjects(), opts)
	return &EMHarness{s: s}, nil
}

// RunIteration executes one E+M pass: snapshot Θ_{t−1}, compute
// responsibilities, update Θ and every attribute model β. It must not be
// called after Close.
func (h *EMHarness) RunIteration() {
	h.s.snapshotTheta()
	h.s.emIteration()
}

// RunStrengthStep runs one relation-strength step (the safeguarded Newton
// iteration on g′₂ with Θ fixed, paper §4.2) on the current Θ. Every call
// starts from the γ the harness held at its first call, so repeated calls
// on an unchanged Θ repeat the same Newton iterations and line-search
// trials. The first call sizes the strength scratch; later calls allocate
// nothing. It must not be called after Close.
func (h *EMHarness) RunStrengthStep() {
	if h.gamma0 == nil {
		h.gamma0 = append([]float64(nil), h.s.gamma...)
	}
	copy(h.s.gamma, h.gamma0)
	h.s.learnStrengths()
}

// RunObjective evaluates the cluster-optimization objective g₁ (Eq. 9) on
// the current Θ, β and γ, as a fit does once per model state. The first
// call sizes the per-edge and per-observation slots; later calls allocate
// nothing. It must not be called after Close.
func (h *EMHarness) RunObjective() float64 { return h.s.objectiveG1() }

// Close stops the harness's worker pool, if any. Safe to call more than
// once; only RunIteration, RunStrengthStep and RunObjective are invalid
// afterwards.
func (h *EMHarness) Close() {
	if h.s.pool != nil {
		h.s.pool.stop()
		h.s.pool = nil
	}
}

// Theta exposes the current membership matrix (shared; do not mutate) so
// benchmarks can keep the result observable to the compiler.
func (h *EMHarness) Theta() [][]float64 { return h.s.theta }
