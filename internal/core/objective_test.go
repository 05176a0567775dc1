package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"genclus/internal/hin"
)

// gaussLogPDF is ln N(x | mu, sigma²) written as one expression: the
// per-observation reference the hoisted Gaussian terms of obsTermRange must
// reproduce bit for bit.
func gaussLogPDF(mu, sigma, x float64) float64 {
	z := (x - mu) / sigma
	return -0.5*z*z - math.Log(sigma) - 0.5*math.Log(2*math.Pi)
}

// normalPDF is the N(mu, sigma²) density, written independently of
// gaussLogPDF.
func normalPDF(mu, sigma, x float64) float64 {
	z := (x - mu) / sigma
	return math.Exp(-0.5*z*z) / (sigma * math.Sqrt(2*math.Pi))
}

// TestGaussianPDFIntegratesToOne: exp(gaussLogPDF) is a normalized density.
func TestGaussianPDFIntegratesToOne(t *testing.T) {
	mu, sigma := 1.5, 0.7
	// Trapezoid rule over ±8σ.
	const n = 20000
	lo, hi := mu-8*sigma, mu+8*sigma
	h := (hi - lo) / n
	var integral float64
	for i := 0; i <= n; i++ {
		w := 1.0
		if i == 0 || i == n {
			w = 0.5
		}
		integral += w * math.Exp(gaussLogPDF(mu, sigma, lo+float64(i)*h))
	}
	integral *= h
	if math.Abs(integral-1) > 1e-6 {
		t.Errorf("∫exp(gaussLogPDF) = %v", integral)
	}
}

func TestGaussianLogPDFConsistent(t *testing.T) {
	f := func(mu, rawSigma, x float64) bool {
		sigma := math.Abs(math.Mod(rawSigma, 5)) + 0.1
		mu = math.Mod(mu, 100)
		x = math.Mod(x, 100)
		p := normalPDF(mu, sigma, x)
		if p < 1e-300 {
			return true // log comparison meaningless near/below denormal range
		}
		return math.Abs(math.Log(p)-gaussLogPDF(mu, sigma, x)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// objectiveTermsNetwork builds n objects over two relations with a
// categorical and a numeric attribute. Every fifth object has no
// observations at all, every third has no numeric observations, and the
// rest carry one to four numeric values, so the per-object log hoisting
// meets empty and multi-observation rows.
func objectiveTermsNetwork(t *testing.T, n int, seed int64) *hin.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 30})
	b.DeclareAttribute(hin.AttrSpec{Name: "level", Kind: hin.Numeric})
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("o%04d", i)
		b.AddObject(ids[i], "t")
		if i%5 == 0 {
			continue
		}
		for w := 0; w < 1+rng.Intn(5); w++ {
			b.AddTermCount(ids[i], "text", rng.Intn(30), float64(1+rng.Intn(3)))
		}
		if i%3 != 0 {
			for o := 0; o < 1+rng.Intn(4); o++ {
				b.AddNumeric(ids[i], "level", float64(i%4)+rng.NormFloat64())
			}
		}
	}
	rels := []string{"r0", "r1"}
	for i := 0; i < 3*n; i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		if from != to {
			b.AddLink(ids[from], ids[to], rels[rng.Intn(2)], 0.5+rng.Float64())
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// referenceEdgeTerm is edge i's feature term with a log per edge and
// component — edgeTermRange before ln θ_i was hoisted per source object.
func referenceEdgeTerm(s *state, i int) float64 {
	e := s.net.Edges()[i]
	ti, tj := s.theta[e.From], s.theta[e.To]
	var ce float64
	for k := range ti {
		ce += tj[k] * math.Log(ti[k])
	}
	return s.gamma[e.Rel] * e.Weight * ce
}

// referenceGaussTerm is the log-likelihood term of observation x of object
// v under Gaussian attribute a, with σ_k, ln σ_k, ln θ_vk and ½·ln 2π taken
// per observation and component — obsTermRange before the hoisting.
func referenceGaussTerm(s *state, a, v int, x float64) float64 {
	gp := s.gauss[a]
	th := s.theta[v]
	logs := make([]float64, len(th))
	maxLog := math.Inf(-1)
	for k := range th {
		logs[k] = math.Log(th[k]) + gaussLogPDF(gp.Mu[k], math.Sqrt(gp.Var[k]), x)
		if logs[k] > maxLog {
			maxLog = logs[k]
		}
	}
	var sum float64
	for _, lg := range logs {
		sum += math.Exp(lg - maxLog)
	}
	return maxLog + math.Log(sum)
}

// referenceCatTerm is the log-likelihood term of one categorical
// observation of object v under attribute a.
func referenceCatTerm(s *state, a, v int, tc hin.TermCount) float64 {
	th := s.theta[v]
	var p float64
	for k := range th {
		p += th[k] * s.cat[a].Beta[k][tc.Term]
	}
	if p > 0 {
		return tc.Count * math.Log(p)
	}
	return tc.Count * math.Log(s.opts.Epsilon)
}

// TestObjectiveTermsMatchReference compares every per-edge and
// per-observation slot g₁ fills against the per-term reference formulas,
// bit for bit, at K = 2, 3 and 4 on one worker and on the pool. The state
// carries an ε-floored Θ entry on an object with observations, a component
// variance at VarFloor, and objects without observations.
func TestObjectiveTermsMatchReference(t *testing.T) {
	net := objectiveTermsNetwork(t, 700, 31) // > emChunkSize, so P=2 runs the pool
	text, _ := net.AttrID("text")
	level, _ := net.AttrID("level")
	for _, k := range []int{2, 3, 4} {
		for _, p := range []int{1, 2} {
			opts := DefaultOptions(k)
			opts.Parallelism = p
			s := newState(net, opts, int64(k), false)
			s.pool = newWorkerPool(net.NumObjects(), opts)
			if p > 1 && s.pool == nil {
				t.Fatalf("K=%d P=%d: network too small for a pool", k, p)
			}
			s.runEM(2) // move β and Θ off their initial values
			// Object 1 has observations (1 % 5 != 0); floor all but one
			// of its memberships at ε.
			row := s.theta[1]
			for c := range row {
				row[c] = opts.Epsilon
			}
			row[0] = 1 - float64(k-1)*opts.Epsilon
			if len(s.numRows[level][1]) == 0 || len(s.numRows[level][0]) != 0 || len(s.termRows[text][0]) != 0 {
				t.Fatal("fixture: want observations on object 1 and none on object 0")
			}
			s.gauss[level].Var[k-1] = opts.VarFloor
			s.gamma[0], s.gamma[1] = 0.8, 1.7

			s.objectiveG1()
			if s.pool != nil {
				s.pool.stop()
			}

			for i := range s.edgeTerm {
				if want := referenceEdgeTerm(s, i); math.Float64bits(s.edgeTerm[i]) != math.Float64bits(want) {
					t.Fatalf("K=%d P=%d: edge %d term %v, reference %v", k, p, i, s.edgeTerm[i], want)
				}
			}
			for _, a := range s.attrs {
				off := s.obsOff[a]
				for v := 0; v < net.NumObjects(); v++ {
					got := s.obsTerm[off[v]:off[v+1]]
					if s.kind[a] == hin.Numeric {
						for i, x := range s.numRows[a][v] {
							want := referenceGaussTerm(s, a, v, x)
							if math.Float64bits(got[i]) != math.Float64bits(want) {
								t.Fatalf("K=%d P=%d: object %d observation %d term %v, reference %v", k, p, v, i, got[i], want)
							}
						}
						continue
					}
					for i, tc := range s.termRows[a][v] {
						want := referenceCatTerm(s, a, v, tc)
						if math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Fatalf("K=%d P=%d: object %d term %d %v, reference %v", k, p, v, i, got[i], want)
						}
					}
				}
			}
		}
	}
}

// stateFromResult rebuilds the fitting state a Result describes: its Θ, γ
// and attribute models copied bit for bit onto a fresh state.
func stateFromResult(net *hin.Network, opts Options, res *Result) *state {
	s := newState(net, opts, opts.Seed, false)
	for v, row := range res.Theta {
		copy(s.theta[v], row)
	}
	copy(s.gamma, res.GammaVec)
	for i, a := range s.attrs {
		am := res.Attrs[i]
		switch am.Kind {
		case hin.Categorical:
			for c, row := range am.Cat.Beta {
				copy(s.cat[a].Beta[c], row)
			}
		case hin.Numeric:
			copy(s.gauss[a].Mu, am.Gauss.Mu)
			copy(s.gauss[a].Var, am.Gauss.Var)
		}
	}
	return s
}

// TestObjectiveReuseNeverStale: a fit evaluates g₁ once per model state
// and every reported g₁ is the one of the state it is reported for. The
// Progress values and the history snapshots agree bit for bit, the final
// Objective equals a fresh evaluation on the final parameters, and the fit
// makes InitSeeds + OuterIterations evaluations.
func TestObjectiveReuseNeverStale(t *testing.T) {
	net := objectiveTermsNetwork(t, 700, 37)
	opts := DefaultOptions(3)
	opts.Seed = 9
	opts.OuterIters = 4
	opts.EMIters = 3
	opts.Parallelism = 2
	opts.LearnGamma = true
	opts.TrackHistory = true
	var progress []Progress
	opts.Progress = func(p Progress) { progress = append(progress, p) }
	evals := 0
	objectiveG1Hook = func() { evals++ }
	t.Cleanup(func() { objectiveG1Hook = nil })

	m, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	objectiveG1Hook = nil
	res := m.Result
	if len(progress) != res.OuterIterations+1 || len(res.History) != len(progress) {
		t.Fatalf("%d progress calls, %d snapshots, %d outer iterations", len(progress), len(res.History), res.OuterIterations)
	}
	for i, p := range progress {
		if math.Float64bits(p.Objective) != math.Float64bits(res.History[i].G1) {
			t.Errorf("outer %d: Progress g₁ %v, History g₁ %v", i, p.Objective, res.History[i].G1)
		}
	}
	fresh := stateFromResult(net, opts, res).objectiveG1()
	if math.Float64bits(res.Objective) != math.Float64bits(fresh) {
		t.Errorf("Result.Objective %v, fresh g₁ on the final state %v", res.Objective, fresh)
	}
	if want := opts.InitSeeds + res.OuterIterations; evals != want {
		t.Errorf("fit evaluated g₁ %d times, want InitSeeds + OuterIterations = %d", evals, want)
	}
}
