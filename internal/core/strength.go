package core

import (
	"math"

	"genclus/internal/linalg"
	"genclus/internal/mathx"
)

// strengthStats holds the per-object, per-relation aggregates the
// pseudo-likelihood g′₂ (Eq. 14) and its derivatives (Eqs. 16–17) are built
// from. With Θ fixed they are constants of the Newton iteration:
//
//	S_i^{(r)}   = Σ_{e=<i,j>, φ(e)=r} w(e)                  (weight mass)
//	Sik^{(r)}   = Σ_{e=<i,j>, φ(e)=r} w(e)·θ_{j,k}          (α contributions)
//	F_i^{(r)}   = Σ_{e=<i,j>, φ(e)=r} w(e)·Σ_k θ_{j,k}·ln θ_{i,k}
//
// so that α_{ik}(γ) = Σ_r γ_r·Sik^{(r)} + 1 and the feature sum restricted
// to relation r is Σ_i γ_r·F_i^{(r)}.
//
// The per-object terms of g′₂, ∇g′₂ and Hg′₂ — everything that calls
// Lgamma, ψ or ψ′ — run on the fit's worker pool into per-object slots;
// each reduction across objects then folds those slots serially in object
// order, the same left fold the single-threaded evaluation performs, so the
// values are bitwise independent of Parallelism.
type strengthStats struct {
	owner   *state // runs the per-object phases on its pool
	nRel, k int
	objs    []int     // objects with ≥ 1 out-link (others contribute nothing)
	s       []float64 // len(objs)×nRel
	sik     []float64 // len(objs)×nRel×k
	f       []float64 // len(objs)×nRel

	// Per-object slots: ln B(α_i) for g′₂, and object i's gradient
	// (len(objs)×nRel) and upper-triangle Hessian (len(objs)×nRel×nRel)
	// contributions.
	logB    []float64
	objGrad []float64
	objHess []float64

	// Reduction outputs, the Newton solve's scratch (a copy of H to
	// factor in place, the LU row permutation and the direction Δ) and
	// the line-search trial point, reused on every call.
	grad  []float64
	hess  *linalg.Matrix
	work  *linalg.Matrix
	piv   []int
	delta []float64
	trial []float64

	passes int // g′₂ evaluations so far; tests count a step's passes
}

// buildStrengthStats (re)fills the state's reusable strength statistics
// from the current Θ. The aggregate arrays are sized once per fit — their
// shape depends only on the immutable network and K — and each object's
// rows are rebuilt on the pool. Each object's out-links are walked in
// edge-list order, so every (object, relation) slot sums its links by
// ascending target, duplicates in build order.
func (s *state) buildStrengthStats() *strengthStats {
	st := &s.strength
	if !s.strengthReady {
		nRel := s.net.NumRelations()
		k := s.opts.K
		var objs []int
		for v := 0; v < s.net.NumObjects(); v++ {
			if s.net.OutDegree(v) > 0 {
				objs = append(objs, v)
			}
		}
		st.owner = s
		st.nRel, st.k = nRel, k
		st.objs = objs
		st.s = make([]float64, len(objs)*nRel)
		st.sik = make([]float64, len(objs)*nRel*k)
		st.f = make([]float64, len(objs)*nRel)
		st.logB = make([]float64, len(objs))
		st.objGrad = make([]float64, len(objs)*nRel)
		st.objHess = make([]float64, len(objs)*nRel*nRel)
		st.grad = make([]float64, nRel)
		st.hess = linalg.NewMatrix(nRel, nRel)
		st.work = linalg.NewMatrix(nRel, nRel)
		st.piv = make([]int, nRel)
		st.delta = make([]float64, nRel)
		st.trial = make([]float64, nRel)
		s.strengthReady = true
	}
	s.runPhase(phaseStrengthRows, st.units())
	return st
}

// units is the number of pool work units over the strength objects.
func (st *strengthStats) units() int { return unitCount(len(st.objs), objectUnitSize) }

// strengthRows rebuilds the statistics rows of strength objects [lo, hi);
// logTheta is K-sized worker scratch.
func (s *state) strengthRows(lo, hi int, logTheta []float64) {
	st := &s.strength
	nRel, k := st.nRel, st.k
	clear(st.s[lo*nRel : hi*nRel])
	clear(st.f[lo*nRel : hi*nRel])
	clear(st.sik[lo*nRel*k : hi*nRel*k])
	for oi := lo; oi < hi; oi++ {
		v := st.objs[oi]
		mathx.LogTo(logTheta, s.theta[v])
		for _, e := range s.net.OutEdges(v) {
			slot := oi*nRel + e.Rel
			base := slot * k
			tj := s.theta[e.To]
			var ce float64
			for c := 0; c < k; c++ {
				st.sik[base+c] += e.Weight * tj[c]
				ce += tj[c] * logTheta[c]
			}
			st.s[slot] += e.Weight
			st.f[slot] += e.Weight * ce
		}
	}
}

// alphaOf fills alpha with α_i(γ) = 1 + Σ_r γ_r·Sik^{(r)} for strength
// object oi, adding only the relations oi has links in (S_i^{(r)} > 0) and
// whose strength is nonzero. In an A–C–P network each object type links
// through one or two relations, so most (object, relation) pairs are
// skipped. Skipping is bitwise the identity:
//
//   - S_i^{(r)} == 0 only when oi has no links in r, since link weights are
//     positive. Its Sik row is then exactly +0: strengthRows clears it and
//     never adds to it.
//   - For finite γ_r, γ_r·(+0) is ±0 and α_c + (±0) is α_c, because α_c ≥ 1.
//   - A non-finite γ_r can only be a line-search trial (Options.Validate
//     keeps the starting γ finite). Adding the term would make α_c, ln B(α_i)
//     and so g′₂ NaN; skipping it, the serial fold in pseudoLogLikelihood
//     still adds γ_r·F_i^{(r)} with F_i^{(r)} = +0, which is NaN too. Either
//     way val >= cur fails and the trial is rejected.
func (st *strengthStats) alphaOf(gamma []float64, oi int, alpha []float64) {
	k := st.k
	for c := 0; c < k; c++ {
		alpha[c] = 1
	}
	for r := 0; r < st.nRel; r++ {
		gr := gamma[r]
		if gr == 0 || st.s[oi*st.nRel+r] == 0 {
			continue
		}
		base := (oi*st.nRel + r) * k
		for c := 0; c < k; c++ {
			alpha[c] += gr * st.sik[base+c]
		}
	}
}

// pseudoLogLikelihood evaluates g′₂(γ) (Eq. 14):
//
//	g′₂(γ) = Σ_i ( Σ_r γ_r·F_i^{(r)} − ln B(α_i(γ)) ) − ‖γ‖²/(2σ²).
//
// It allocates nothing.
func (st *strengthStats) pseudoLogLikelihood(gamma []float64, priorSigma float64) float64 {
	st.passes++
	st.owner.argGamma = gamma
	st.owner.runPhase(phasePseudoLL, st.units())
	nRel := st.nRel
	var g2 float64
	for oi := range st.objs {
		for r := 0; r < nRel; r++ {
			gr := gamma[r]
			if gr == 0 {
				continue
			}
			g2 += gr * st.f[oi*nRel+r]
		}
		g2 -= st.logB[oi]
	}
	var norm2 float64
	for _, g := range gamma {
		norm2 += g * g
	}
	return g2 - norm2/(2*priorSigma*priorSigma)
}

// logBetaRange writes ln B(α_i(γ)) of strength objects [lo, hi) into their
// slots; alpha is K-sized worker scratch.
func (st *strengthStats) logBetaRange(gamma []float64, lo, hi int, alpha []float64) {
	for oi := lo; oi < hi; oi++ {
		st.alphaOf(gamma, oi, alpha)
		st.logB[oi] = mathx.LogBeta(alpha)
	}
}

// gradHess evaluates ∇g′₂ (Eq. 16) and the Hessian Hg′₂ (Eq. 17) at γ. It
// allocates nothing: the results live in st and are overwritten by the
// next call.
func (st *strengthStats) gradHess(gamma []float64, priorSigma float64) (grad []float64, hess *linalg.Matrix) {
	st.owner.argGamma = gamma
	st.owner.runPhase(phaseGradHess, st.units())
	nRel := st.nRel
	grad, hess = st.grad, st.hess
	clear(grad)
	clear(hess.Data)
	for oi := range st.objs {
		for r1 := 0; r1 < nRel; r1++ {
			if st.s[oi*nRel+r1] == 0 {
				continue
			}
			grad[r1] += st.objGrad[oi*nRel+r1]
			for r2 := r1; r2 < nRel; r2++ {
				if st.s[oi*nRel+r2] == 0 {
					continue
				}
				h := st.objHess[(oi*nRel+r1)*nRel+r2]
				hess.Add(r1, r2, h)
				if r2 != r1 {
					hess.Add(r2, r1, h)
				}
			}
		}
	}
	inv := 1 / (priorSigma * priorSigma)
	for r := 0; r < nRel; r++ {
		grad[r] -= gamma[r] * inv
		hess.Add(r, r, -inv)
	}
	return grad, hess
}

// gradHessRange writes the gradient and upper-triangle Hessian terms of
// strength objects [lo, hi) into their slots. Slots of relations an object
// has no links of are left stale; the fold skips them.
func (st *strengthStats) gradHessRange(gamma []float64, lo, hi int, ws *workerScratch) {
	nRel, k := st.nRel, st.k
	alpha, psiA, psi1A := ws.alpha, ws.psiA, ws.psi1A
	for oi := lo; oi < hi; oi++ {
		st.alphaOf(gamma, oi, alpha)
		var alpha0 float64
		for c := 0; c < k; c++ {
			alpha0 += alpha[c]
			psiA[c] = mathx.Digamma(alpha[c])
			psi1A[c] = mathx.Trigamma(alpha[c])
		}
		psiA0 := mathx.Digamma(alpha0)
		psi1A0 := mathx.Trigamma(alpha0)

		for r1 := 0; r1 < nRel; r1++ {
			s1 := st.s[oi*nRel+r1]
			if s1 == 0 {
				continue
			}
			base1 := (oi*nRel + r1) * k
			// Gradient: F_i^{(r)} − Σ_k ψ(α_ik)·Sik^{(r)} + ψ(α_i0)·S_i^{(r)}.
			g := st.f[oi*nRel+r1] + psiA0*s1
			for c := 0; c < k; c++ {
				g -= psiA[c] * st.sik[base1+c]
			}
			st.objGrad[oi*nRel+r1] = g
			// Hessian row.
			for r2 := r1; r2 < nRel; r2++ {
				s2 := st.s[oi*nRel+r2]
				if s2 == 0 {
					continue
				}
				base2 := (oi*nRel + r2) * k
				h := psi1A0 * s1 * s2
				for c := 0; c < k; c++ {
					h -= psi1A[c] * st.sik[base1+c] * st.sik[base2+c]
				}
				st.objHess[(oi*nRel+r1)*nRel+r2] = h
			}
		}
	}
}

// learnStrengths runs the safeguarded Newton–Raphson iteration of §4.2 with
// the γ ≥ 0 projection from Algorithm 1. It returns the achieved g′₂. A
// Newton path that starts downhill ends the loop without a line search: at
// a γ held at its 0 bound, its up to 40 trials could not raise g′₂.
//
// Once the first call has sized the state's scratch, the step allocates
// nothing: buildStrengthStats, gradHess, the nRel×nRel Newton solve and
// every g′₂ evaluation (line-search trials included) work in that scratch.
func (s *state) learnStrengths() float64 {
	st := s.buildStrengthStats()
	sigma := s.opts.PriorSigma
	gamma := s.gamma
	cur := st.pseudoLogLikelihood(gamma, sigma)

	for it := 0; it < s.opts.NewtonIters; it++ {
		grad, hess := st.gradHess(gamma, sigma)
		// Newton direction Δ solves H·Δ = ∇; the step is γ − Δ. H is
		// negative definite (Appendix B), so −H is SPD and Cholesky is the
		// natural factorization — it also asserts definiteness for free.
		delta := st.newtonDirection(grad, hess)
		// Slope of the projected path γ(t) = max(0, γ − tΔ) at t → 0⁺: the
		// projection holds a γ_r at 0 whose Δ_r > 0, so it adds nothing. g′₂
		// is strictly concave, so if the path does not start uphill every
		// trial on its first piece loses g′₂: converged, with no trial.
		var slope float64
		for r := range gamma {
			if !(gamma[r] == 0 && delta[r] > 0) {
				slope -= grad[r] * delta[r]
			}
		}
		if !(slope > 0) {
			break
		}
		// Backtracking line search on the Newton step, projecting onto the
		// feasible set γ ≥ 0 at every trial point.
		step := 1.0
		improved := false
		trial := st.trial
		for ls := 0; ls < 40; ls++ {
			for r := range gamma {
				trial[r] = gamma[r] - step*delta[r]
				if trial[r] < 0 {
					trial[r] = 0
				}
			}
			val := st.pseudoLogLikelihood(trial, sigma)
			if val >= cur {
				maxMove := 0.0
				for r := range gamma {
					if d := math.Abs(trial[r] - gamma[r]); d > maxMove {
						maxMove = d
					}
				}
				copy(gamma, trial)
				improvedEnough := val > cur+math.Abs(cur)*1e-12
				cur = val
				improved = true
				if maxMove < s.opts.NewtonTol || !improvedEnough {
					return cur
				}
				break
			}
			step /= 2
		}
		if !improved {
			break // no ascent along the Newton direction: converged
		}
	}
	return cur
}

// newtonDirection solves H·Δ = ∇ for the negative definite Hessian into
// st.delta. It negates the system to use Cholesky on the SPD −H; if
// rounding has destroyed definiteness it retries with LU on a fresh copy
// of H, and as a last resort falls back to a small gradient step so the
// line search can still make progress. It allocates nothing.
func (st *strengthStats) newtonDirection(grad []float64, hess *linalg.Matrix) []float64 {
	delta := st.delta
	copy(st.work.Data, hess.Data)
	if err := linalg.SolveSPDInPlace(st.work.Scale(-1), grad, delta); err == nil {
		for i := range delta {
			delta[i] = -delta[i]
		}
		return delta
	}
	copy(st.work.Data, hess.Data)
	if err := linalg.SolveInPlace(st.work, st.piv, grad, delta); err == nil {
		return delta
	}
	for r := range grad {
		delta[r] = -1e-3 * grad[r]
	}
	return delta
}
