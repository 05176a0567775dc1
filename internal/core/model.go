package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"genclus/internal/hin"
	"genclus/internal/mathx"
	"genclus/internal/stats"
)

// CatParams are the fitted parameters of a categorical attribute: Beta[k][l]
// is the probability of term l in cluster k (β in Eq. 3).
type CatParams struct {
	Beta [][]float64
}

// GaussParams are the fitted parameters of a numeric attribute: per-cluster
// mean and variance (β_k = (µ_k, σ_k²) in Eq. 4).
type GaussParams struct {
	Mu  []float64
	Var []float64
}

// AttrModel is the fitted component model of one attribute.
type AttrModel struct {
	Name  string
	Kind  hin.Kind
	Cat   *CatParams   // set when Kind == Categorical
	Gauss *GaussParams // set when Kind == Numeric
}

// state is the mutable fitting state.
type state struct {
	net   *hin.Network
	opts  Options
	attrs []int      // dense attribute ids in play
	kind  []hin.Kind // attribute kind by dense attr id

	// ctx aborts the fit between EM iterations; never nil.
	ctx context.Context

	theta [][]float64 // |V| × K
	gamma []float64   // |R|

	cat   []*CatParams   // by attr id; nil for numeric/out-of-play attrs
	gauss []*GaussParams // by attr id; nil for categorical/out-of-play attrs

	// The merged in-link arrays symmetric propagation walks, cached from
	// the network at construction. Out-links are read through
	// net.OutEdges.
	inStart  []int
	inFrom   []int
	inRel    []int
	inWeight []float64

	// Raw observation rows cached from the network by attr id, so the
	// E-step walks observations without per-object accessor calls.
	termRows [][][]hin.TermCount
	numRows  [][][]float64

	// Per-iteration EM scratch, allocated once and reused so the
	// steady-state EM loop is allocation-free (see em.go).
	catT       [][]float64 // by attr id: term-major transpose of β, flat Vocab×K
	halfLogVar [][]float64 // by attr id: 0.5·ln σ²_k per Gaussian component
	thetaOld   [][]float64 // Θ_{t−1} snapshot buffer (snapshotTheta)
	accums     []*emAccum  // one per reduction chunk (ensureEMScratch)

	// Flat contiguous panels backing the theta/thetaOld row sets, kept in
	// lockstep by snapshotTheta. The E-step link kernels index Θ_{t−1}
	// through thetaOldF (one bounds-checked load per edge instead of a row
	// header chase); the values are the same memory the rows alias, so the
	// arithmetic is unchanged.
	thetaF    []float64
	thetaOldF []float64

	// Phase machinery (see em.go): the worker pool (nil runs every phase on
	// the calling goroutine), the current phase's unit count and the atomic
	// counter the workers drain, the shared WaitGroup, per-worker scratch,
	// the γ argument of the γ-parameterized phases, and the precomputed
	// entry-range segments of the statistics merge.
	pool      *workerPool
	units     int
	next      atomic.Int64
	wg        sync.WaitGroup
	scratch   []*workerScratch
	argGamma  []float64
	mergeSegs []mergeSeg

	// Objective scratch (objectiveG1): one slot per edge for the feature
	// terms and one per observation for the likelihood terms, laid out in
	// the serial summation order; obsOff[a][v] is the first slot of object
	// v's observations of attribute a.
	edgeTerm []float64
	obsTerm  []float64
	obsOff   [][]int

	// Reusable strength-learning statistics (see strength.go).
	strength      strengthStats
	strengthReady bool

	rng *rand.Rand
	// permuteGaussInit shuffles the quantile-seeded Gaussian means per
	// attribute. Best-of-seeds initialization sets it on all but the first
	// seed so the restarts explore different cross-attribute component
	// pairings (e.g. the anti-diagonal corners of weather Setting 2, which
	// sorted quantile seeding can never express).
	permuteGaussInit bool
}

// gaussPool is one numeric attribute's pooled observations in ascending
// order, with their variance (summed in that order) floored at
// Options.VarFloor: what quantile seeding (initGauss) reads. A fit's
// best-of-seeds candidates share one set, indexed by attr id and filled on
// first use, so each attribute is pooled and sorted once per fit.
type gaussPool struct {
	sorted    []float64
	globalVar float64
}

// newState builds a fitting state with its own Gaussian seeding pools.
func newState(net *hin.Network, opts Options, seed int64, permuteGauss bool) *state {
	return newSeededState(net, opts, seed, permuteGauss, make([]*gaussPool, net.NumAttrs()))
}

// newSeededState builds a fitting state whose Gaussian seeding reads and
// fills pools (by attr id), which states of the same network and options
// may share; the state keeps no reference to them.
func newSeededState(net *hin.Network, opts Options, seed int64, permuteGauss bool, pools []*gaussPool) *state {
	nAttr := net.NumAttrs()
	s := &state{
		net:              net,
		opts:             opts,
		ctx:              context.Background(),
		attrs:            opts.attrIDs(net),
		kind:             make([]hin.Kind, nAttr),
		rng:              rand.New(rand.NewSource(seed)),
		cat:              make([]*CatParams, nAttr),
		gauss:            make([]*GaussParams, nAttr),
		catT:             make([][]float64, nAttr),
		halfLogVar:       make([][]float64, nAttr),
		permuteGaussInit: permuteGauss,
	}
	for a := 0; a < nAttr; a++ {
		s.kind[a] = net.Attr(a).Kind
	}
	// Materialize the in-link view once; PrepareCSR is idempotent, so
	// concurrent fits of a shared network build it exactly once.
	s.inStart, s.inFrom, s.inRel, s.inWeight = net.InLinkArrays()
	s.termRows = make([][][]hin.TermCount, nAttr)
	s.numRows = make([][][]float64, nAttr)
	for _, a := range s.attrs {
		spec := net.Attr(a)
		switch spec.Kind {
		case hin.Categorical:
			s.catT[a] = make([]float64, spec.VocabSize*opts.K)
			s.termRows[a] = net.AttrTermCounts(a)
		case hin.Numeric:
			s.halfLogVar[a] = make([]float64, opts.K)
			s.numRows[a] = net.AttrNumericObs(a)
		}
	}
	g0 := opts.InitialGamma
	if g0 == 0 {
		g0 = 1 // "initially all link types equally important" (§4.3)
	}
	s.gamma = make([]float64, net.NumRelations())
	for r := range s.gamma {
		s.gamma[r] = g0
	}
	if opts.InitGamma != nil {
		copy(s.gamma, opts.InitGamma)
	}
	s.initTheta()
	s.initAttrModels(pools)
	// Commit the initial state at the configured storage precision, so the
	// first E-step already reads float32-representable parameters (no-ops
	// under the float64 default).
	s.roundTheta(0, net.NumObjects())
	s.roundGamma()
	s.roundAttrModels()
	return s
}

func (s *state) initTheta() {
	n := s.net.NumObjects()
	k := s.opts.K
	backing := make([]float64, n*k)
	s.thetaF = backing
	s.theta = make([][]float64, n)
	for v := 0; v < n; v++ {
		row := backing[v*k : (v+1)*k]
		if s.opts.InitTheta != nil {
			copy(row, s.opts.InitTheta[v])
		} else {
			copy(row, stats.SampleSimplexUniform(s.rng, k))
		}
		stats.FloorAndNormalize(row, s.opts.Epsilon)
		s.theta[v] = row
	}
}

func (s *state) initAttrModels(pools []*gaussPool) {
	warm := make(map[string]AttrModel, len(s.opts.InitAttrs))
	for _, am := range s.opts.InitAttrs {
		warm[am.Name] = am
	}
	for _, a := range s.attrs {
		spec := s.net.Attr(a)
		switch spec.Kind {
		case hin.Categorical:
			if am, ok := warm[spec.Name]; ok && am.Kind == hin.Categorical {
				s.cat[a] = warmCat(am.Cat, spec.VocabSize)
			} else {
				s.cat[a] = s.initCat(a, spec)
			}
		case hin.Numeric:
			if am, ok := warm[spec.Name]; ok && am.Kind == hin.Numeric {
				s.gauss[a] = &GaussParams{
					Mu:  append([]float64(nil), am.Gauss.Mu...),
					Var: append([]float64(nil), am.Gauss.Var...),
				}
			} else {
				s.gauss[a] = s.initGauss(a, pools)
			}
		}
	}
}

// warmCat deep-copies a warm-start categorical model onto the network's
// vocabulary. A grown vocabulary gets uniform residual mass on the new
// terms: each component keeps its learned shape but can still claim terms
// it has never seen.
func warmCat(src *CatParams, vocab int) *CatParams {
	beta := make([][]float64, len(src.Beta))
	for k, row := range src.Beta {
		dst := make([]float64, vocab)
		copy(dst, row)
		if extra := vocab - len(row); extra > 0 {
			// Give the unseen tail the mass of one average seen term,
			// spread uniformly, then renormalize. Scale by the row's actual
			// mass so unnormalized warm-start rows (Validate only requires
			// sum > 0) get the same relative share as normalized ones.
			var mass float64
			for _, p := range row {
				mass += p
			}
			fill := mass / float64(len(row)*(extra))
			for l := len(row); l < vocab; l++ {
				dst[l] = fill
			}
		}
		stats.Normalize(dst)
		beta[k] = dst
	}
	return &CatParams{Beta: beta}
}

// initCat gives each cluster a perturbed-uniform term distribution — the
// standard PLSA initialization.
func (s *state) initCat(a int, spec hin.AttrSpec) *CatParams {
	k := s.opts.K
	beta := make([][]float64, k)
	for c := 0; c < k; c++ {
		row := make([]float64, spec.VocabSize)
		for l := range row {
			row[l] = 1 + 0.5*s.rng.Float64()
		}
		stats.Normalize(row)
		beta[c] = row
	}
	return &CatParams{Beta: beta}
}

// initGauss seeds component k of every numeric attribute at the
// (k+½)/K-quantile of the attribute's pooled observations, with a shared
// global variance. Quantile seeding keeps component indices aligned across
// attributes (component k is "low" for every attribute, component K−1
// "high"), which matters when several incomplete numeric attributes must
// agree on a joint hidden space — random seeding routinely permutes the
// attributes against each other and strands EM in a misaligned optimum.
// The pooled observations come from pools (see gaussPool).
func (s *state) initGauss(a int, pools []*gaussPool) *GaussParams {
	k := s.opts.K
	gp := &GaussParams{Mu: make([]float64, k), Var: make([]float64, k)}
	pool := s.gaussPool(a, pools)
	all := pool.sorted
	if len(all) == 0 {
		// No observations anywhere: arbitrary unit-spread components.
		for c := 0; c < k; c++ {
			gp.Mu[c] = float64(c)
			gp.Var[c] = 1
		}
		return gp
	}
	n := len(all)
	order := make([]int, k)
	for c := range order {
		order[c] = c
	}
	if s.permuteGaussInit {
		s.rng.Shuffle(k, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for c := 0; c < k; c++ {
		q := (float64(order[c]) + 0.5) / float64(k)
		idx := int(q * float64(n))
		if idx >= n {
			idx = n - 1
		}
		gp.Mu[c] = all[idx]
		gp.Var[c] = pool.globalVar
	}
	return gp
}

// gaussPool returns attribute a's entry of pools, pooling and sorting its
// observations on first use.
func (s *state) gaussPool(a int, pools []*gaussPool) *gaussPool {
	if p := pools[a]; p != nil {
		return p
	}
	n := 0
	for _, xs := range s.numRows[a] {
		n += len(xs)
	}
	all := make([]float64, 0, n)
	for _, xs := range s.numRows[a] {
		all = append(all, xs...)
	}
	p := &gaussPool{sorted: all}
	if len(all) > 0 {
		sort.Float64s(all)
		var mean, ss float64
		for _, x := range all {
			mean += x
		}
		mean /= float64(len(all))
		for _, x := range all {
			d := x - mean
			ss += d * d
		}
		p.globalVar = ss / float64(len(all))
		if p.globalVar < s.opts.VarFloor {
			p.globalVar = s.opts.VarFloor
		}
	}
	pools[a] = p
	return p
}

// cloneTheta deep-copies the membership matrix (used for snapshots and for
// best-of-seeds bookkeeping).
func cloneTheta(theta [][]float64) [][]float64 {
	if theta == nil {
		return nil
	}
	k := 0
	if len(theta) > 0 {
		k = len(theta[0])
	}
	backing := make([]float64, len(theta)*k)
	out := make([][]float64, len(theta))
	for v, row := range theta {
		dst := backing[v*k : (v+1)*k]
		copy(dst, row)
		out[v] = dst
	}
	return out
}

// snapshotModels deep-copies the fitted attribute models for the Result.
func (s *state) snapshotModels() []AttrModel {
	out := make([]AttrModel, 0, len(s.attrs))
	for _, a := range s.attrs {
		spec := s.net.Attr(a)
		m := AttrModel{Name: spec.Name, Kind: spec.Kind}
		switch spec.Kind {
		case hin.Categorical:
			src := s.cat[a]
			beta := make([][]float64, len(src.Beta))
			for i, row := range src.Beta {
				beta[i] = append([]float64(nil), row...)
			}
			m.Cat = &CatParams{Beta: beta}
		case hin.Numeric:
			src := s.gauss[a]
			m.Gauss = &GaussParams{
				Mu:  append([]float64(nil), src.Mu...),
				Var: append([]float64(nil), src.Var...),
			}
		}
		out = append(out, m)
	}
	return out
}

// ensureObjectiveScratch sizes the objective's per-edge and
// per-observation slots. Their layout depends only on the immutable network
// and the attributes in play, so it is built once per state.
func (s *state) ensureObjectiveScratch() {
	if s.obsOff != nil {
		return
	}
	n := s.net.NumObjects()
	s.edgeTerm = make([]float64, s.net.NumEdges())
	s.obsOff = make([][]int, s.net.NumAttrs())
	total := 0
	for _, a := range s.attrs {
		off := make([]int, n+1)
		for v := 0; v < n; v++ {
			off[v] = total
			switch s.kind[a] {
			case hin.Categorical:
				total += len(s.termRows[a][v])
			case hin.Numeric:
				total += len(s.numRows[a][v])
			}
		}
		off[n] = total
		s.obsOff[a] = off
	}
	s.obsTerm = make([]float64, total)
}

// featureSum computes Σ_e f(θ_i, θ_j, e, γ) — the structural part of the
// objective g₁ (Eq. 9) under the current Θ and the given γ. The per-edge
// terms run on the pool; the sum folds them serially in edge order.
func (s *state) featureSum(gamma []float64) float64 {
	s.ensureObjectiveScratch()
	s.argGamma = gamma
	s.runPhase(phaseFeatureSum, unitCount(len(s.edgeTerm), edgeUnitSize))
	var sum float64
	for _, t := range s.edgeTerm {
		sum += t
	}
	return sum
}

// edgeTermRange writes the feature terms γ(φ(e))·w(e)·Σ_k θ_{j,k} ln θ_{i,k}
// of edges [lo, hi) into their slots. The edge list is sorted by source, so
// ln θ_i is taken once per run of edges leaving object i (into logTheta,
// K-sized worker scratch) rather than once per edge; the products and
// their order are the ones a per-edge log would give.
func (s *state) edgeTermRange(gamma []float64, lo, hi int, logTheta []float64) {
	edges := s.net.Edges()
	from := -1
	for i := lo; i < hi; i++ {
		e := &edges[i]
		if e.From != from {
			from = e.From
			mathx.LogTo(logTheta, s.theta[from])
		}
		tj := s.theta[e.To]
		var ce float64
		for k := range logTheta {
			ce += tj[k] * logTheta[k]
		}
		s.edgeTerm[i] = gamma[e.Rel] * e.Weight * ce
	}
}

// attrLogLikelihood computes Σ_X Σ_v Σ_x log Σ_k θ_vk p(x|β_k) — the
// generative part of the objective (Eqs. 3–4). The per-observation terms
// run on the pool; the sum folds them serially in attribute, object and
// observation order.
func (s *state) attrLogLikelihood() float64 {
	s.ensureObjectiveScratch()
	s.runPhase(phaseAttrLL, unitCount(s.net.NumObjects(), objectUnitSize))
	var ll float64
	for _, t := range s.obsTerm {
		ll += t
	}
	return ll
}

// halfLog2Pi is the Gaussian log-density's normalizing term ½·ln 2π,
// computed at run time by the expression the per-observation form used, so
// it carries the same bits.
var halfLog2Pi = 0.5 * math.Log(2*math.Pi)

// obsTermRange writes the log-likelihood terms of every observation of
// objects [lo, hi) into their slots, using ws's K-sized sections as
// scratch. A Gaussian term is the log-space mixture
// log Σ_k exp(ln θ_vk + ln N(x | µ_k, σ_k²)); σ_k and ln σ_k are taken
// once per attribute and ln θ_vk once per object with observations, and
// each component's log-density is −½z² − ln σ_k − ½·ln 2π with
// z = (x − µ_k)/σ_k, the operands and order of the per-observation form.
func (s *state) obsTermRange(lo, hi int, ws *workerScratch) {
	for _, a := range s.attrs {
		off := s.obsOff[a]
		switch s.kind[a] {
		case hin.Categorical:
			// Stage every term's mixture probability p in its slot (ε
			// where !(p > 0)), take the unit's logarithms in one
			// mathx.LogTo call, then scale each by its count.
			beta := s.cat[a].Beta
			rows := s.termRows[a]
			for v := lo; v < hi; v++ {
				out := s.obsTerm[off[v]:off[v+1]]
				th := s.theta[v]
				for i, tc := range rows[v] {
					var p float64
					for k := range th {
						p += th[k] * beta[k][tc.Term]
					}
					if !(p > 0) {
						p = s.opts.Epsilon
					}
					out[i] = p
				}
			}
			unit := s.obsTerm[off[lo]:off[hi]]
			mathx.LogTo(unit, unit)
			for v := lo; v < hi; v++ {
				out := s.obsTerm[off[v]:off[v+1]]
				for i, tc := range rows[v] {
					out[i] = tc.Count * out[i]
				}
			}
		case hin.Numeric:
			gp := s.gauss[a]
			rows := s.numRows[a]
			// σ_k and ln σ_k live in the sections the strength phases use
			// for ψ(α) and ψ′(α); no phase needs both at once.
			sig, lsig, lt, logs := ws.psiA, ws.psi1A, ws.logTheta, ws.logs
			for k := range sig {
				sig[k] = math.Sqrt(gp.Var[k])
				lsig[k] = math.Log(sig[k])
			}
			for v := lo; v < hi; v++ {
				xs := rows[v]
				if len(xs) == 0 {
					continue
				}
				out := s.obsTerm[off[v]:off[v+1]]
				if len(lt) == 4 && !forceGenericKernels {
					obsTermsGaussK4(out, xs, gp.Mu, sig, lsig, s.theta[v])
					continue
				}
				for k, t := range s.theta[v] {
					lt[k] = math.Log(t)
				}
				for i, x := range xs {
					// Log-space mixture for numerical stability.
					maxLog := math.Inf(-1)
					for k := range lt {
						z := (x - gp.Mu[k]) / sig[k]
						logs[k] = lt[k] + (-0.5*z*z - lsig[k] - halfLog2Pi)
						if logs[k] > maxLog {
							maxLog = logs[k]
						}
					}
					var sum float64
					for _, lg := range logs {
						sum += math.Exp(lg - maxLog)
					}
					out[i] = maxLog + math.Log(sum)
				}
			}
		}
	}
}

// objectiveG1 is g₁(Θ, β) from Eq. 9 — the cluster-optimization objective
// with γ held fixed. It costs a pass over every edge and observation, so a
// fit evaluates it once per model state: once per best-of-seeds candidate
// (initializeState), and once per outer iteration when Progress or
// TrackHistory reads it; the Result reuses the last value (FitContext).
func (s *state) objectiveG1() float64 {
	if objectiveG1Hook != nil {
		objectiveG1Hook()
	}
	return s.featureSum(s.gamma) + s.attrLogLikelihood()
}

// objectiveG1Hook, when non-nil, runs at every objectiveG1 call. Only tests
// set it, to count the evaluations a fit makes.
var objectiveG1Hook func()
