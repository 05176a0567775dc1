package core

import (
	"fmt"
	"math"
	"sort"

	"genclus/internal/hin"
)

// This file is the E-step scoring kernel: the per-object arithmetic that
// turns links and attribute observations into an unnormalized membership
// row, factored out of emRange so the online fold-in path (Scorer, consumed
// by internal/infer) replays exactly the arithmetic — same operations, same
// floating-point summation order — that the fit itself runs. emRange calls
// the same functions with the M-step accumulators attached; the Scorer calls
// them without. Any change here changes fitted models bit for bit and is
// pinned by TestFitGoldenBitwiseChecksum.

// scoreCatAttrInto adds the responsibility mass of one object's term
// observations of a single categorical attribute to the unnormalized row nr:
// for every observation, resp_i = θ_i·β_i(term) normalized over i and scaled
// by the term count (the 1{v∈V_X}·p(z = k | obs) term of Eq. 10). betaT is
// the flat term-major transpose of β; th is the object's prior membership
// row θ^{t−1}; resp is k-sized scratch. When st is non-nil the same
// responsibilities accumulate into the M-step sufficient statistics (flat,
// term-major, aligned with betaT) — the fused form the EM loop uses; the
// fold-in path passes nil and leaves the model untouched.
func scoreCatAttrInto(nr, st, resp, betaT, th []float64, tcs []hin.TermCount, k int) {
	nr = nr[:k:k]
	th = th[:k:k]
	resp = resp[:k:k]
	for _, tc := range tcs {
		base := tc.Term * k
		bt := betaT[base : base+k : base+k]
		var sum float64
		for i := range bt {
			resp[i] = th[i] * bt[i]
			sum += resp[i]
		}
		if sum <= 0 {
			continue // term impossible under every component
		}
		inv := tc.Count / sum
		if st != nil {
			stt := st[base : base+k : base+k]
			for i := range stt {
				r := resp[i] * inv
				nr[i] += r
				stt[i] += r
			}
		} else {
			for i := range resp {
				nr[i] += resp[i] * inv
			}
		}
	}
}

// scoreGaussAttrInto adds the responsibility mass of one object's numeric
// observations of a single Gaussian attribute to nr. Responsibilities are
// computed in log space (ln θ_i − (x−µ_i)²/2σ_i² − ½ln σ_i²) with a max
// shift so distant observations cannot underflow every component; an
// observation that still underflows contributes nothing — the same rule the
// EM loop applies. mu, vr and hlv are the component means, variances and
// precomputed ½·ln σ² constants; th is the prior row; resp, logs and logTh
// are k-sized scratch. When gw is non-nil the responsibilities also
// accumulate into the Gaussian M-step statistics (gw, gwx, gwx2); the
// fold-in path passes nil for all three.
func scoreGaussAttrInto(nr, gw, gwx, gwx2, resp, logs, logTh, mu, vr, hlv, th, xs []float64, k int) {
	nr = nr[:k:k]
	th = th[:k:k]
	resp = resp[:k:k]
	logs = logs[:k:k]
	logTh = logTh[:k:k]
	mu = mu[:k:k]
	vr = vr[:k:k]
	hlv = hlv[:k:k]
	// ln θ_v is shared by every observation of v.
	for i := range th {
		logTh[i] = math.Log(th[i])
	}
	for _, x := range xs {
		// Log-space responsibilities guard against distant observations
		// underflowing every component.
		maxLog := math.Inf(-1)
		for i := range logs {
			d := x - mu[i]
			logs[i] = logTh[i] - 0.5*d*d/vr[i] - hlv[i]
			if logs[i] > maxLog {
				maxLog = logs[i]
			}
		}
		if math.IsInf(maxLog, -1) {
			continue
		}
		var sum float64
		for i := range logs {
			resp[i] = math.Exp(logs[i] - maxLog)
			sum += resp[i]
		}
		if gw != nil {
			gwk, gwxk, gwx2k := gw[:k:k], gwx[:k:k], gwx2[:k:k]
			for i := range resp {
				r := resp[i] / sum
				nr[i] += r
				gwk[i] += r
				gwxk[i] += r * x
				gwx2k[i] += r * x * x
			}
		} else {
			for i := range resp {
				nr[i] += resp[i] / sum
			}
		}
	}
}

// normalizeRowInto turns the unnormalized row nr into a proper membership
// row in dst: divide by the total mass, floor every entry at eps (NaN
// entries too), renormalize. It reports false — leaving dst untouched —
// when nr carries no information (non-positive or non-finite mass), in
// which case the caller keeps its prior row. This is the final pass of the
// E-step, applied identically by the EM loop and the fold-in scorer.
func normalizeRowInto(dst, nr []float64, eps float64) bool {
	nr = nr[:len(dst):len(dst)]
	var mass float64
	for _, x := range nr {
		mass += x
	}
	if mass <= 0 || math.IsNaN(mass) || math.IsInf(mass, 0) {
		return false
	}
	for i := range dst {
		x := nr[i] / mass
		// Single-comparison floor: !(x >= eps) is exactly (x < eps || NaN),
		// folded into one branch the compiler can turn into a select.
		if !(x >= eps) {
			x = eps
		}
		dst[i] = x
	}
	// Re-normalize after flooring.
	var sum float64
	for _, x := range dst {
		sum += x
	}
	for i := range dst {
		dst[i] /= sum
	}
	return true
}

// defaultScorerEpsilon is the Θ floor of a model that recorded none —
// DefaultOptions' value. foldInMaxIters caps the fold-in fixed-point
// iteration for queries with attribute observations; link-only queries
// always finish in one pass.
const (
	defaultScorerEpsilon = 1e-9
	foldInMaxIters       = 100
)

// Scorer is the fold-in kernel: it evaluates the E-step posterior of
// out-of-sample objects against a fitted model's frozen state — Θ for the
// linked neighbors, γ for the link weights, and the per-attribute component
// models — without touching the model. A query is accumulated through
// Begin/AddLink/AddTermCount/AddNumeric (dense indices resolved via the
// Index lookups) and evaluated by Score, which runs the same per-object
// arithmetic as one EM E-step: the γ-weighted link term, the per-attribute
// responsibility terms (a missing attribute simply contributes no term),
// and the epsilon-floored normalization. Queries with attribute
// observations iterate the object's own mixing proportions to a fixed
// point, since the responsibility terms depend on them; everything else in
// the model stays frozen.
//
// All scratch is allocated at construction or grown on first use and
// reused, so steady-state scoring performs no allocation. A Scorer is NOT
// safe for concurrent use; create one per goroutine (internal/infer wraps
// it in the serving engine and owns the locking).
//
// Scope of the bitwise reproduction contract (assigning a converged
// model's training objects returns its Θ rows exactly): it requires the
// model's recorded Θ floor (Result.Epsilon; NewScorer reads it unless
// handed another, and a model without one scores at the 1e-9 default),
// SymmetricPropagation off (a query has no in-links, so the Scorer
// computes the out-link term only), and relation names declared in
// lexicographic order (the Scorer's summation order — see below —
// coincides with the fit's dense declaration order exactly then). The
// storage precision always comes from the model (Result.Precision).
// Outside those conditions assignments are still valid posteriors of the
// same model; they just may differ from the training rows in the last
// bits (or, under symmetric propagation, by the missing in-link term).
type Scorer struct {
	k   int
	eps float64
	f32 bool // round posterior rows to float32 storage (fit parity)

	theta [][]float64 // model Θ rows, shared with the model (read-only)

	gamma    []float64 // γ by sorted-relation index
	relIndex map[string]int

	objIndex map[string]int

	attrs     []scorerAttr // model attribute order
	attrIndex map[string]int

	// Per-query accumulation state, reset by Begin.
	links  []scorerLink
	lsort  linkSorter        // reusable link sorter (no allocation per query)
	catBuf [][]hin.TermCount // by attr position; nil for numeric attrs
	numBuf [][]float64       // by attr position; nil for categorical attrs
	hasObs bool

	// Fold-in scratch.
	linkVec, row, cur, prior []float64
	resp, logs, logTh        []float64
}

// scorerAttr is one attribute's frozen component model in the layout the
// E-step consumes.
type scorerAttr struct {
	kind  hin.Kind
	vocab int
	betaT []float64 // categorical: flat term-major transpose of β
	mu    []float64 // numeric: component means
	vr    []float64 // numeric: component variances
	hlv   []float64 // numeric: ½·ln σ² per component
}

// scorerLink is one resolved query link.
type scorerLink struct {
	rel int
	to  int
	w   float64
}

// NewScorer builds the fold-in kernel for a fitted model. It precomputes
// the derived read-only views the E-step consumes (term-major β transposes,
// ½·ln σ² constants) and the name→index tables queries resolve against.
// Posteriors are floored at eps, or at the model's own Θ floor when eps is
// 0, and rounded to the model's storage precision. The model is shared,
// not copied: it must not be mutated while the Scorer lives (fitted models
// are immutable in practice).
func NewScorer(m *Model, eps float64) (*Scorer, error) {
	if m == nil {
		return nil, fmt.Errorf("core: NewScorer: nil model")
	}
	if m.Result == nil || m.K < 2 || len(m.Theta) == 0 {
		return nil, fmt.Errorf("core: NewScorer: model has no fitted state")
	}
	if eps == 0 {
		eps = m.Epsilon
	}
	if eps == 0 {
		eps = defaultScorerEpsilon
	}
	if !(eps > 0) || eps >= 1.0/float64(m.K) {
		return nil, fmt.Errorf("core: NewScorer: Epsilon = %v, want in (0, 1/K)", eps)
	}
	prec, err := ParsePrecision(string(m.Precision))
	if err != nil {
		return nil, fmt.Errorf("core: NewScorer: %w", err)
	}
	k := m.K
	s := &Scorer{
		k:        k,
		eps:      eps,
		f32:      prec == PrecisionFloat32,
		theta:    m.Theta,
		relIndex: make(map[string]int, len(m.Gamma)),
		objIndex: make(map[string]int, len(m.objectIDs)),
		attrs:    make([]scorerAttr, 0, len(m.Attrs)),
		catBuf:   make([][]hin.TermCount, len(m.Attrs)),
		numBuf:   make([][]float64, len(m.Attrs)),
		linkVec:  make([]float64, k),
		row:      make([]float64, k),
		cur:      make([]float64, k),
		prior:    make([]float64, k),
		resp:     make([]float64, k),
		logs:     make([]float64, k),
		logTh:    make([]float64, k),
	}
	for v, row := range m.Theta {
		if len(row) != k {
			return nil, fmt.Errorf("core: NewScorer: Theta row %d has %d entries, want K=%d", v, len(row), k)
		}
	}
	// Relations in lexicographic name order: the model's dense source-network
	// ids are not portable across serialization (only the name→γ map is), so
	// the Scorer's relation order — and with it the link summation order —
	// is defined by sorted names. That order is part of the determinism
	// contract (see docs/ARCHITECTURE.md, "Inference").
	relNames := make([]string, 0, len(m.Gamma))
	for name := range m.Gamma {
		relNames = append(relNames, name)
	}
	sort.Strings(relNames)
	s.gamma = make([]float64, len(relNames))
	for r, name := range relNames {
		s.gamma[r] = m.Gamma[name]
		s.relIndex[name] = r
	}
	for v, id := range m.objectIDs {
		s.objIndex[id] = v
	}
	s.attrIndex = make(map[string]int, len(m.Attrs))
	for pos, am := range m.Attrs {
		if _, dup := s.attrIndex[am.Name]; dup {
			return nil, fmt.Errorf("core: NewScorer: duplicate attribute %q", am.Name)
		}
		sa := scorerAttr{kind: am.Kind}
		switch am.Kind {
		case hin.Categorical:
			if am.Cat == nil || len(am.Cat.Beta) != k {
				return nil, fmt.Errorf("core: NewScorer: attribute %q has %d categorical components, want K=%d", am.Name, catComponents(am.Cat), k)
			}
			sa.vocab = len(am.Cat.Beta[0])
			sa.betaT = make([]float64, sa.vocab*k)
			for i, row := range am.Cat.Beta {
				if len(row) != sa.vocab {
					return nil, fmt.Errorf("core: NewScorer: attribute %q has ragged β rows", am.Name)
				}
				for l, x := range row {
					sa.betaT[l*k+i] = x
				}
			}
		case hin.Numeric:
			if am.Gauss == nil || len(am.Gauss.Mu) != k || len(am.Gauss.Var) != k {
				return nil, fmt.Errorf("core: NewScorer: attribute %q has %d Gaussian components, want K=%d", am.Name, gaussComponents(am.Gauss), k)
			}
			sa.mu = append([]float64(nil), am.Gauss.Mu...)
			sa.vr = append([]float64(nil), am.Gauss.Var...)
			sa.hlv = make([]float64, k)
			for i := 0; i < k; i++ {
				if !(sa.vr[i] > 0) {
					return nil, fmt.Errorf("core: NewScorer: attribute %q component %d has variance %v, want > 0", am.Name, i, sa.vr[i])
				}
				sa.hlv[i] = 0.5 * math.Log(sa.vr[i])
			}
		default:
			return nil, fmt.Errorf("core: NewScorer: attribute %q has unknown kind %v", am.Name, am.Kind)
		}
		s.attrIndex[am.Name] = pos
		s.attrs = append(s.attrs, sa)
	}
	return s, nil
}

// K returns the model's cluster count — the length Score's dst must have.
func (s *Scorer) K() int { return s.k }

// ObjectIndex resolves a known object's ID to its dense row index.
func (s *Scorer) ObjectIndex(id string) (int, bool) {
	v, ok := s.objIndex[id]
	return v, ok
}

// RelationIndex resolves a relation name to the Scorer's dense relation
// index (lexicographic name order).
func (s *Scorer) RelationIndex(name string) (int, bool) {
	r, ok := s.relIndex[name]
	return r, ok
}

// AttrIndex resolves an attribute name to its position in the model's
// attribute order.
func (s *Scorer) AttrIndex(name string) (int, bool) {
	a, ok := s.attrIndex[name]
	return a, ok
}

// AttrKind returns the kind of attribute position a.
func (s *Scorer) AttrKind(a int) hin.Kind { return s.attrs[a].kind }

// VocabSize returns the vocabulary size of categorical attribute position a
// (0 for numeric attributes).
func (s *Scorer) VocabSize(a int) int { return s.attrs[a].vocab }

// Begin resets the per-query accumulation state. Every query starts with
// Begin, adds its links and observations, and ends with Score.
func (s *Scorer) Begin() {
	s.links = s.links[:0]
	for a := range s.catBuf {
		s.catBuf[a] = s.catBuf[a][:0]
	}
	for a := range s.numBuf {
		s.numBuf[a] = s.numBuf[a][:0]
	}
	s.hasObs = false
}

// AddLink adds one link from the query object to known object `to` under
// relation index rel (RelationIndex order) with the given positive weight.
// Indices must be valid — the serving engine validates at its trust
// boundary before resolving.
func (s *Scorer) AddLink(rel, to int, w float64) {
	s.links = append(s.links, scorerLink{rel: rel, to: to, w: w})
}

// AddTermCount adds one categorical observation (term index within the
// attribute's vocabulary, positive count) of attribute position a.
func (s *Scorer) AddTermCount(a, term int, count float64) {
	s.catBuf[a] = append(s.catBuf[a], hin.TermCount{Term: term, Count: count})
	s.hasObs = true
}

// AddNumeric adds one numeric observation of attribute position a.
func (s *Scorer) AddNumeric(a int, x float64) {
	s.numBuf[a] = append(s.numBuf[a], x)
	s.hasObs = true
}

// Score evaluates the accumulated query and writes the posterior membership
// row into dst (length K). It returns the number of fold-in iterations run:
// 1 for queries whose posterior is closed-form (no attribute observations),
// up to 100 otherwise. A query with no links and no observations gets
// the uniform row — the E-step's "no information" rule folded in from a
// uniform prior.
//
// Link contributions accumulate in (relation, addition order) order after a
// stable sort by (relation index, target index) — the same
// relation-major, ascending-target order the EM loop walks each object's
// out-links in — and attribute terms follow in the model's attribute order, so
// scoring a training object with its own links and observations replays
// the fit's summation tree exactly.
func (s *Scorer) Score(dst []float64) int {
	k := s.k
	uniform := 1.0 / float64(k)
	for i := range s.prior {
		s.prior[i] = uniform
	}

	// Link term: constant across fold-in iterations (the neighbors' Θ rows
	// are frozen), computed once.
	clear(s.linkVec)
	s.lsort.links = s.links
	sort.Stable(&s.lsort)
	lv := s.linkVec[:k:k]
	for _, l := range s.links {
		g := s.gamma[l.rel] * l.w
		if g == 0 {
			continue
		}
		tu := s.theta[l.to][:k:k]
		for i := range tu {
			lv[i] += g * tu[i]
		}
	}

	if !s.hasObs {
		// No attribute terms: the posterior is closed-form in one pass.
		if !normalizeRowInto(dst, s.linkVec, s.eps) {
			copy(dst, s.prior)
		}
		if s.f32 {
			f32Slice(dst)
		}
		return 1
	}

	// Attribute responsibilities depend on the query's own mixing
	// proportions; iterate them to a fixed point from the uniform prior
	// with every model parameter frozen.
	iters := 0
	for iters < foldInMaxIters {
		iters++
		copy(s.row, s.linkVec)
		for a := range s.attrs {
			sa := &s.attrs[a]
			switch sa.kind {
			case hin.Categorical:
				if tcs := s.catBuf[a]; len(tcs) > 0 {
					scoreCatAttrInto(s.row, nil, s.resp, sa.betaT, s.prior, tcs, k)
				}
			case hin.Numeric:
				if xs := s.numBuf[a]; len(xs) > 0 {
					scoreGaussAttrInto(s.row, nil, nil, nil, s.resp, s.logs, s.logTh, sa.mu, sa.vr, sa.hlv, s.prior, xs, k)
				}
			}
		}
		if !normalizeRowInto(s.cur, s.row, s.eps) {
			copy(s.cur, s.prior)
		}
		if s.f32 {
			// Same per-row commit the fit applies after its normalization
			// pass, so fixed points land on float32-representable rows.
			f32Slice(s.cur)
		}
		stationary := true
		for i, x := range s.cur {
			if x != s.prior[i] {
				stationary = false
				break
			}
		}
		s.prior, s.cur = s.cur, s.prior
		if stationary {
			break
		}
	}
	copy(dst, s.prior)
	return iters
}

// linkSorter stable-sorts a query's links by (relation, target) through a
// pointer receiver, so sorting allocates nothing: stability keeps
// duplicate links in their added order — matching the edge-list contract
// that duplicates are kept as adjacent entries in build order — and
// sort.Stable's O(n log n) bounds the cost of a hostile link list (the
// serving limit allows thousands of links per query; an insertion sort
// there would be quadratic CPU inside the serialized engine pass).
type linkSorter struct {
	links []scorerLink
}

// Len implements sort.Interface.
func (s *linkSorter) Len() int { return len(s.links) }

// Less implements sort.Interface: ascending (relation, target).
func (s *linkSorter) Less(i, j int) bool {
	a, b := s.links[i], s.links[j]
	if a.rel != b.rel {
		return a.rel < b.rel
	}
	return a.to < b.to
}

// Swap implements sort.Interface.
func (s *linkSorter) Swap(i, j int) { s.links[i], s.links[j] = s.links[j], s.links[i] }
