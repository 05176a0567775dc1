package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"genclus/internal/datagen"
	"genclus/internal/hin"
	"genclus/internal/linalg"
)

// randomLinkedState builds a random network with two relations and a random
// membership matrix, for derivative and concavity checks.
func randomLinkedState(t *testing.T, seed int64, nObj int) *state {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder()
	ids := make([]string, nObj)
	for i := 0; i < nObj; i++ {
		ids[i] = "o" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		b.AddObject(ids[i], "t")
	}
	rels := []string{"r0", "r1"}
	for i := 0; i < nObj*3; i++ {
		from, to := rng.Intn(nObj), rng.Intn(nObj)
		if from == to {
			continue
		}
		b.AddLink(ids[from], ids[to], rels[rng.Intn(2)], 0.2+2*rng.Float64())
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(3)
	s := newState(net, opts, seed, false)
	for v := range s.theta {
		copy(s.theta[v], randSimplex(rng, 3))
	}
	return s
}

// TestStrengthGradientFiniteDifference verifies Eq. 16 against a central
// finite difference of the pseudo-log-likelihood (Eq. 14).
func TestStrengthGradientFiniteDifference(t *testing.T) {
	for _, seed := range []int64{41, 42, 43} {
		s := randomLinkedState(t, seed, 25)
		st := s.buildStrengthStats()
		rng := rand.New(rand.NewSource(seed + 100))
		gamma := []float64{0.5 + rng.Float64(), 0.5 + rng.Float64()}
		grad, _ := st.gradHess(gamma, s.opts.PriorSigma)
		const h = 1e-6
		for r := range gamma {
			gp := append([]float64(nil), gamma...)
			gm := append([]float64(nil), gamma...)
			gp[r] += h
			gm[r] -= h
			fd := (st.pseudoLogLikelihood(gp, s.opts.PriorSigma) -
				st.pseudoLogLikelihood(gm, s.opts.PriorSigma)) / (2 * h)
			if math.Abs(fd-grad[r]) > 1e-3*math.Max(1, math.Abs(fd)) {
				t.Errorf("seed %d: ∂g2/∂γ%d = %v, finite diff %v", seed, r, grad[r], fd)
			}
		}
	}
}

// mulVec returns m·x as a new vector.
func mulVec(m *linalg.Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		for j, v := range x {
			out[i] += m.At(i, j) * v
		}
	}
	return out
}

// TestStrengthHessianFiniteDifference verifies Eq. 17 against finite
// differences of the gradient.
func TestStrengthHessianFiniteDifference(t *testing.T) {
	s := randomLinkedState(t, 47, 25)
	st := s.buildStrengthStats()
	gamma := []float64{1.2, 0.8}
	// gradHess returns buffers it reuses on the next call: keep copies.
	_, h0 := st.gradHess(gamma, s.opts.PriorSigma)
	hess := linalg.NewMatrix(h0.Rows, h0.Cols)
	copy(hess.Data, h0.Data)
	const h = 1e-5
	for r1 := 0; r1 < 2; r1++ {
		gp := append([]float64(nil), gamma...)
		gm := append([]float64(nil), gamma...)
		gp[r1] += h
		gm[r1] -= h
		g, _ := st.gradHess(gp, s.opts.PriorSigma)
		gradP := append([]float64(nil), g...)
		gradM, _ := st.gradHess(gm, s.opts.PriorSigma)
		for r2 := 0; r2 < 2; r2++ {
			fd := (gradP[r2] - gradM[r2]) / (2 * h)
			if math.Abs(fd-hess.At(r1, r2)) > 1e-2*math.Max(1, math.Abs(fd)) {
				t.Errorf("H[%d][%d] = %v, finite diff %v", r1, r2, hess.At(r1, r2), fd)
			}
		}
	}
}

// TestStrengthHessianSymmetricNegDef: Appendix B proves Hg′₂ is negative
// definite; verify both properties numerically.
func TestStrengthHessianSymmetricNegDef(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 10; trial++ {
		s := randomLinkedState(t, int64(60+trial), 20)
		st := s.buildStrengthStats()
		gamma := []float64{rng.Float64() * 2, rng.Float64() * 2}
		_, hess := st.gradHess(gamma, s.opts.PriorSigma)
		for r1 := 0; r1 < hess.Rows; r1++ {
			for r2 := r1 + 1; r2 < hess.Cols; r2++ {
				if math.Abs(hess.At(r1, r2)-hess.At(r2, r1)) > 1e-9 {
					t.Fatalf("Hessian not symmetric: H[%d][%d] = %v, H[%d][%d] = %v",
						r1, r2, hess.At(r1, r2), r2, r1, hess.At(r2, r1))
				}
			}
		}
		// xᵀHx < 0 for random x ≠ 0.
		for probe := 0; probe < 20; probe++ {
			x := []float64{rng.NormFloat64(), rng.NormFloat64()}
			hx := mulVec(hess, x)
			quad := x[0]*hx[0] + x[1]*hx[1]
			if quad >= 0 {
				t.Fatalf("Hessian not negative definite: xᵀHx = %v", quad)
			}
		}
	}
}

// TestPseudoLikelihoodConcaveAlongLines: g′₂ restricted to any segment in
// the positive orthant must be concave (second differences ≤ 0).
func TestPseudoLikelihoodConcaveAlongLines(t *testing.T) {
	s := randomLinkedState(t, 71, 30)
	st := s.buildStrengthStats()
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 30; trial++ {
		a := []float64{rng.Float64() * 3, rng.Float64() * 3}
		d := []float64{rng.NormFloat64(), rng.NormFloat64()}
		vals := make([]float64, 11)
		feasible := true
		for i := range vals {
			tt := float64(i) / 10
			g := []float64{a[0] + tt*d[0], a[1] + tt*d[1]}
			if g[0] < 0 || g[1] < 0 {
				feasible = false
				break
			}
			vals[i] = st.pseudoLogLikelihood(g, s.opts.PriorSigma)
		}
		if !feasible {
			continue
		}
		for i := 1; i < len(vals)-1; i++ {
			second := vals[i+1] - 2*vals[i] + vals[i-1]
			if second > 1e-8*math.Max(1, math.Abs(vals[i])) {
				t.Fatalf("non-concave second difference %v at %d", second, i)
			}
		}
	}
}

// TestLearnStrengthsPrefersConsistentRelation is the behavioural heart of
// the paper: a relation that links objects with near-identical memberships
// must earn a higher strength than one linking random objects.
func TestLearnStrengthsPrefersConsistentRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	b := hin.NewBuilder()
	const n = 60
	ids := make([]string, n)
	for i := range ids {
		ids[i] = "s" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		b.AddObject(ids[i], "t")
	}
	// Two planted groups: objects 0..29 in cluster 0, 30..59 in cluster 1.
	group := func(i int) int { return i / 30 }
	// "consistent" links stay within a group; "noisy" links are random.
	for i := 0; i < n; i++ {
		for c := 0; c < 3; c++ {
			j := rng.Intn(30) + group(i)*30
			if j != i {
				b.AddLink(ids[i], ids[j], "consistent", 1)
			}
			j = rng.Intn(n)
			if j != i {
				b.AddLink(ids[i], ids[j], "noisy", 1)
			}
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(2)
	s := newState(net, opts, 82, false)
	for v := range s.theta {
		if group(v) == 0 {
			s.theta[v][0], s.theta[v][1] = 0.95, 0.05
		} else {
			s.theta[v][0], s.theta[v][1] = 0.05, 0.95
		}
	}
	s.learnStrengths()
	cons, _ := net.RelationID("consistent")
	noisy, _ := net.RelationID("noisy")
	if !(s.gamma[cons] > s.gamma[noisy]) {
		t.Errorf("γ(consistent)=%v should exceed γ(noisy)=%v", s.gamma[cons], s.gamma[noisy])
	}
	if s.gamma[noisy] < 0 || s.gamma[cons] < 0 {
		t.Error("strengths must be non-negative")
	}
}

// TestLearnStrengthsIncreasesPseudoLikelihood: the Newton loop must not
// decrease g′₂ relative to the all-ones start.
func TestLearnStrengthsIncreasesPseudoLikelihood(t *testing.T) {
	for _, seed := range []int64{91, 92, 93} {
		s := randomLinkedState(t, seed, 40)
		st := s.buildStrengthStats()
		before := st.pseudoLogLikelihood(s.gamma, s.opts.PriorSigma)
		after := s.learnStrengths()
		if after < before-1e-9 {
			t.Errorf("seed %d: g2 decreased %v → %v", seed, before, after)
		}
		// And the returned value matches re-evaluation at the final γ.
		if math.Abs(after-st.pseudoLogLikelihood(s.gamma, s.opts.PriorSigma)) > 1e-9*math.Max(1, math.Abs(after)) {
			t.Errorf("seed %d: returned g2 inconsistent", seed)
		}
	}
}

// TestLearnStrengthsProjection: strengths never go negative even when the
// unconstrained optimum would.
func TestLearnStrengthsProjection(t *testing.T) {
	// A relation linking maximally dissimilar objects wants γ < 0; the
	// projection must clamp it to 0.
	b := hin.NewBuilder()
	b.AddObject("x", "t")
	b.AddObject("y", "t")
	b.AddLink("x", "y", "bad", 5)
	b.AddLink("y", "x", "bad", 5)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(2)
	s := newState(net, opts, 99, false)
	x, _ := net.IndexOf("x")
	y, _ := net.IndexOf("y")
	s.theta[x][0], s.theta[x][1] = 0.999, 0.001
	s.theta[y][0], s.theta[y][1] = 0.001, 0.999
	s.learnStrengths()
	bad, _ := net.RelationID("bad")
	if s.gamma[bad] < 0 {
		t.Errorf("γ went negative: %v", s.gamma[bad])
	}
	// With such dissimilar endpoints the learned strength should be tiny.
	if s.gamma[bad] > 0.5 {
		t.Errorf("γ(bad) = %v, expected to be pushed toward 0", s.gamma[bad])
	}
}

// TestStrengthStatsSkipSinkObjects: objects with no out-links must not
// contribute rows.
func TestStrengthStatsSkipSinkObjects(t *testing.T) {
	b := hin.NewBuilder()
	b.AddObject("a", "t")
	b.AddObject("b", "t")
	b.AddObject("sink", "t")
	b.AddLink("a", "sink", "r", 1)
	b.AddLink("b", "sink", "r", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := newState(net, DefaultOptions(2), 1, false)
	st := s.buildStrengthStats()
	if len(st.objs) != 2 {
		t.Errorf("expected 2 contributing objects, got %d", len(st.objs))
	}
}

// TestAlphaAlwaysValid: α_ik = Σ γ w θ + 1 ≥ 1 keeps LogBeta finite for any
// non-negative γ, so pseudoLogLikelihood must always be finite.
func TestAlphaAlwaysValid(t *testing.T) {
	s := randomLinkedState(t, 101, 30)
	st := s.buildStrengthStats()
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 50; trial++ {
		gamma := []float64{rng.Float64() * 20, rng.Float64() * 20}
		v := st.pseudoLogLikelihood(gamma, 0.1)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("g2 not finite at γ=%v: %v", gamma, v)
		}
	}
	// Zero strengths are feasible too.
	if v := st.pseudoLogLikelihood([]float64{0, 0}, 0.1); math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("g2 not finite at 0: %v", v)
	}
}

// TestAlphaOfSkipIsBitwiseIdentity: alphaOf skips the relations an object
// has no links in. For finite γ that must give the same bits as adding
// every nonzero-strength relation's (all +0) Sik row, and for a non-finite
// γ_r of a skipped relation g′₂ must still be NaN, so the line search
// rejects the trial as before.
func TestAlphaOfSkipIsBitwiseIdentity(t *testing.T) {
	s := randomLinkedState(t, 103, 30)
	st := s.buildStrengthStats()
	k, nRel := st.k, st.nRel
	got, want := make([]float64, k), make([]float64, k)
	skipped := false
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 50; trial++ {
		gamma := []float64{rng.Float64() * 20, rng.Float64() * 20}
		if trial%5 == 0 {
			gamma[trial/5%nRel] = 0
		}
		for oi := range st.objs {
			st.alphaOf(gamma, oi, got)
			for c := range want {
				want[c] = 1
			}
			for r := 0; r < nRel; r++ {
				if gamma[r] == 0 {
					continue
				}
				skipped = skipped || st.s[oi*nRel+r] == 0
				for c := range want {
					want[c] += gamma[r] * st.sik[(oi*nRel+r)*k+c]
				}
			}
			for c := range want {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("γ=%v object %d: α[%d] = %v, want %v", gamma, oi, c, got[c], want[c])
				}
			}
		}
	}
	if !skipped {
		t.Fatal("fixture has no object without links in some relation")
	}
	for _, g := range []float64{math.Inf(1), math.NaN()} {
		if v := st.pseudoLogLikelihood([]float64{g, 1}, 0.1); !math.IsNaN(v) {
			t.Errorf("g2 at γ=(%v, 1) = %v, want NaN", g, v)
		}
	}
}

// TestNewtonDirectionFallbacks drives newtonDirection past the Cholesky
// solve. An H whose negation is not positive definite must take the LU
// path and still solve H·Δ = ∇; a singular H must fall back to exactly
// Δ = −1e-3·∇. Neither path may allocate.
func TestNewtonDirectionFallbacks(t *testing.T) {
	st := randomLinkedState(t, 81, 20).buildStrengthStats()
	grad := []float64{0.3, -1.7}
	hess := linalg.NewMatrix(2, 2)
	set := func(h00, h01, h11 float64) {
		hess.Set(0, 0, h00)
		hess.Set(0, 1, h01)
		hess.Set(1, 0, h01)
		hess.Set(1, 1, h11)
	}

	// Indefinite: −H = [[1, −2], [−2, −1]] fails Cholesky at the second
	// pivot, after the first column of its factor has overwritten the
	// scratch, so LU must start again from a fresh copy of H.
	set(-1, 2, 1)
	delta := st.newtonDirection(grad, hess)
	hd := mulVec(hess, delta)
	for r := range grad {
		if math.Abs(hd[r]-grad[r]) > 1e-10 {
			t.Errorf("LU path: (H·Δ)[%d] = %v, want ∇ = %v", r, hd[r], grad[r])
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { st.newtonDirection(grad, hess) }); allocs != 0 {
		t.Errorf("LU path allocates %v times per call, want 0", allocs)
	}

	// Singular (rank 1), and zero: both solvers reject them.
	for _, h := range [][3]float64{{1, 1, 1}, {0, 0, 0}} {
		set(h[0], h[1], h[2])
		delta := st.newtonDirection(grad, hess)
		for r := range grad {
			if want := -1e-3 * grad[r]; math.Float64bits(delta[r]) != math.Float64bits(want) {
				t.Errorf("H=%v: Δ[%d] = %v, want −1e-3·∇ = %v", h, r, delta[r], want)
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { st.newtonDirection(grad, hess) }); allocs != 0 {
			t.Errorf("H=%v: gradient fallback allocates %v times per call, want 0", h, allocs)
		}
	}
}

// TestStrengthStepSteadyStateZeroAlloc pins the strength step's allocation
// contract: once the first call has sized the scratch, rebuilding the
// statistics, evaluating g′₂, ∇g′₂ and Hg′₂, and the whole Newton step
// (solve and line search included) allocate nothing, on one worker (P=1)
// and on the pool (P=2). The values must also be bitwise equal at both
// widths — the per-object terms run on the pool, the folds stay serial.
func TestStrengthStepSteadyStateZeroAlloc(t *testing.T) {
	ds := gammaZeroDataset(t)
	opts := DefaultOptions(ds.NumClusters)
	gamma := make([]float64, ds.Net.NumRelations())
	for r := range gamma {
		gamma[r] = 0.7 * float64(r) // γ_0 = 0 exercises the skipped relation
	}
	var refG2 float64
	var refGrad, refHess []float64
	for _, p := range []int{1, 2} {
		opts.Parallelism = p
		s := newState(ds.Net, opts, 5, false)
		s.pool = newWorkerPool(ds.Net.NumObjects(), opts)
		if (s.pool != nil) != (p > 1) {
			t.Fatalf("P=%d: pool = %v, want one exactly when P > 1", p, s.pool)
		}
		sigma := opts.PriorSigma
		st := s.buildStrengthStats()
		g2 := st.pseudoLogLikelihood(gamma, sigma)
		grad, hess := st.gradHess(gamma, sigma)
		if p == 1 {
			refG2 = g2
			refGrad = append([]float64(nil), grad...)
			refHess = append([]float64(nil), hess.Data...)
		} else {
			if math.Float64bits(g2) != math.Float64bits(refG2) {
				t.Errorf("g′₂ at P=%d = %v, P=1 gave %v", p, g2, refG2)
			}
			for i := range grad {
				if math.Float64bits(grad[i]) != math.Float64bits(refGrad[i]) {
					t.Errorf("∇[%d] at P=%d = %v, P=1 gave %v", i, p, grad[i], refGrad[i])
				}
			}
			for i := range hess.Data {
				if math.Float64bits(hess.Data[i]) != math.Float64bits(refHess[i]) {
					t.Errorf("H[%d] at P=%d = %v, P=1 gave %v", i, p, hess.Data[i], refHess[i])
				}
			}
		}
		if !raceEnabled {
			for _, c := range []struct {
				name string
				f    func()
			}{
				{"buildStrengthStats", func() { s.buildStrengthStats() }},
				{"pseudoLogLikelihood", func() { st.pseudoLogLikelihood(gamma, sigma) }},
				{"gradHess", func() { st.gradHess(gamma, sigma) }},
				{"learnStrengths", func() { s.learnStrengths() }},
			} {
				if allocs := testing.AllocsPerRun(5, c.f); allocs != 0 {
					t.Errorf("P=%d: %s allocates %v times per call, want 0", p, c.name, allocs)
				}
			}
		}
		if s.pool != nil {
			s.pool.stop()
		}
	}
}

// TestObjectiveSteadyStateZeroAlloc: after the first call sizes the
// per-edge and per-observation slots, g₁ allocates nothing — numeric
// observations included — on one worker and on the pool, and both widths
// return the same bits.
func TestObjectiveSteadyStateZeroAlloc(t *testing.T) {
	net := mixedNetwork(t, 700, 11) // categorical + numeric, 1400 objects
	opts := DefaultOptions(3)
	var ref float64
	for _, p := range []int{1, 2} {
		opts.Parallelism = p
		s := newState(net, opts, 8, false)
		s.pool = newWorkerPool(net.NumObjects(), opts)
		g1 := s.objectiveG1()
		if p == 1 {
			ref = g1
		} else if math.Float64bits(g1) != math.Float64bits(ref) {
			t.Errorf("g₁ at P=%d = %v, P=1 gave %v", p, g1, ref)
		}
		if !raceEnabled {
			if allocs := testing.AllocsPerRun(5, func() { s.objectiveG1() }); allocs != 0 {
				t.Errorf("P=%d: objectiveG1 allocates %v times per call, want 0", p, allocs)
			}
		}
		if s.pool != nil {
			s.pool.stop()
		}
	}
}

// learnStrengthsReference is the strength step as it ran before
// learnStrengths checked the slope of the projected path: every Newton
// step runs the backtracking line search, even when the path starts
// downhill. It moves gamma in place and returns the achieved g′₂. It also
// copies into stop the γ at the start of the first Newton step whose
// projected path starts downhill (the final γ if none does), returns g′₂
// there as stopG2, and counts such steps in downhill.
func (s *state) learnStrengthsReference(gamma, stop []float64) (cur, stopG2 float64, downhill int) {
	st := s.buildStrengthStats()
	sigma := s.opts.PriorSigma
	cur = st.pseudoLogLikelihood(gamma, sigma)
	defer func() {
		if downhill == 0 {
			copy(stop, gamma)
			stopG2 = cur
		}
	}()

	for it := 0; it < s.opts.NewtonIters; it++ {
		grad, hess := st.gradHess(gamma, sigma)
		delta := st.newtonDirection(grad, hess)
		if !(projectedSlope(gamma, grad, delta) > 0) {
			if downhill == 0 {
				copy(stop, gamma)
				stopG2 = cur
			}
			downhill++
		}
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
					return cur, stopG2, downhill
				}
				break
			}
			step /= 2
		}
		if !improved {
			break
		}
	}
	return cur, stopG2, downhill
}

// projectedSlope is d/dt g′₂(max(0, γ − tΔ)) at t → 0⁺, given ∇g′₂ at γ:
// −Σ_r ∇_r·Δ_r over the relations the projection lets move.
func projectedSlope(gamma, grad, delta []float64) float64 {
	var s float64
	for r := range gamma {
		if !(gamma[r] == 0 && delta[r] > 0) {
			s -= grad[r] * delta[r]
		}
	}
	return s
}

// strengthFixture is a network and the options Fit would run it with.
type strengthFixture struct {
	name string
	net  *hin.Network
	opts Options
}

// strengthFixtures are the networks whose strength steps the tests below
// replay: the gamma-zero and weather goldens' networks at the default
// outer and EM iteration counts, and the social network of
// TestSocialNetworkEndToEnd with its options.
func strengthFixtures(t *testing.T) []strengthFixture {
	t.Helper()
	zds := gammaZeroDataset(t)
	wds, err := datagen.Weather(datagen.WeatherSetting1(300, 300, 20, 3))
	if err != nil {
		t.Fatal(err)
	}
	scfg := datagen.DefaultSocialConfig(23)
	scfg.NumUsers, scfg.NumVideos, scfg.NumComments = 150, 75, 200
	sds, err := datagen.Social(scfg)
	if err != nil {
		t.Fatal(err)
	}
	sopts := DefaultOptions(sds.NumClusters)
	sopts.Seed = 24
	sopts.PriorSigma = 0.5
	return []strengthFixture{
		{"gamma-zero", zds.Net, DefaultOptions(zds.NumClusters)},
		{"weather", wds.Net, DefaultOptions(wds.NumClusters)},
		{"social", sds.Net, sopts},
	}
}

// alternate runs Fit's outer alternation by hand — the same initialization
// and EM steps, every outer iteration (no OuterTol stop) — calling step in
// place of each strength step. It returns the final state; the caller
// stops its pool.
func alternate(f strengthFixture, step func(s *state, outer int)) *state {
	pool := newWorkerPool(f.net.NumObjects(), f.opts)
	s, _, _, _ := initializeState(context.Background(), f.net, f.opts, pool)
	for outer := 0; outer < f.opts.OuterIters; outer++ {
		s.runEM(f.opts.EMIters)
		step(s, outer)
		s.roundGamma()
	}
	return s
}

// TestLearnStrengthsMatchesReference replays every strength step of three
// fits against the reference step from the same Θ and γ. learnStrengths
// must stop bit for bit where the reference first meets a Newton step
// whose projected path starts downhill (a stall), and everything the
// reference does after that may move γ by less than NewtonTol only. Steps
// without a stall must match the reference bit for bit to the end.
func TestLearnStrengthsMatchesReference(t *testing.T) {
	for _, f := range strengthFixtures(t) {
		ref := make([]float64, f.net.NumRelations())
		stop := make([]float64, len(ref))
		var stalled int
		s := alternate(f, func(s *state, outer int) {
			copy(ref, s.gamma)
			refG2, stopG2, downhill := s.learnStrengthsReference(ref, stop)
			g2 := s.learnStrengths()
			if downhill > 0 {
				stalled++
			}
			var move float64
			for r := range ref {
				move = math.Max(move, math.Abs(s.gamma[r]-ref[r]))
				if math.Float64bits(s.gamma[r]) != math.Float64bits(stop[r]) {
					t.Errorf("%s step %d: γ[%d] = %v, want %v, the reference's γ at its first stall (%d stalls)",
						f.name, outer, r, s.gamma[r], stop[r], downhill)
				}
			}
			if math.Float64bits(g2) != math.Float64bits(stopG2) {
				t.Errorf("%s step %d: g′₂ = %v, want %v, the reference's g′₂ at its first stall (%d stalls)",
					f.name, outer, g2, stopG2, downhill)
			}
			if !(move < f.opts.NewtonTol) {
				t.Errorf("%s step %d: |γ − γ_ref|∞ = %v, want < NewtonTol = %v (γ = %v, γ_ref = %v)",
					f.name, outer, move, f.opts.NewtonTol, s.gamma, ref)
			}
			if downhill == 0 && math.Float64bits(g2) != math.Float64bits(refG2) {
				t.Errorf("%s step %d: g′₂ = %v, reference %v, with no stall", f.name, outer, g2, refG2)
			}
		})
		if s.pool != nil {
			s.pool.stop()
		}
		if stalled == 0 {
			t.Errorf("%s: no strength step stalls, so the early exit is not exercised", f.name)
		}
		t.Logf("%s: %d of %d strength steps stall", f.name, stalled, f.opts.OuterIters)
	}
}

// TestStrengthStepStallPasses: once γ(published_by_pc) sits at its 0 bound,
// the reference step backtracks through dozens of trials that cannot raise
// g′₂. From the fitted state, one strength step must make at most two g′₂
// passes: the one at the starting γ and at most one trial.
func TestStrengthStepStallPasses(t *testing.T) {
	f := strengthFixtures(t)[0]
	s := alternate(f, func(s *state, _ int) { s.learnStrengths() })
	if s.pool != nil {
		defer s.pool.stop()
	}
	zero, _ := f.net.RelationID(datagen.RelPublishedByP)
	if s.gamma[zero] != 0 {
		t.Fatalf("γ(%s) = %v, want the fixture to end at the 0 bound", datagen.RelPublishedByP, s.gamma[zero])
	}
	gamma := append([]float64(nil), s.gamma...)
	s.strength.passes = 0
	s.learnStrengthsReference(gamma, make([]float64, len(gamma)))
	refPasses := s.strength.passes
	s.strength.passes = 0
	s.learnStrengths()
	if got := s.strength.passes; got > 2 {
		t.Errorf("strength step made %d g′₂ passes, want ≤ 2 (the reference made %d)", got, refPasses)
	}
	if refPasses <= 2 {
		t.Errorf("reference step made %d g′₂ passes: the fixture no longer stalls", refPasses)
	}
	t.Logf("g′₂ passes: %d, reference %d", s.strength.passes, refPasses)
}
