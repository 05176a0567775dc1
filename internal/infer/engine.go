package infer

import (
	"fmt"
	"math"
	"sort"

	"genclus/internal/core"
	"genclus/internal/hin"
)

// Engine assigns query objects against one fitted model. It wraps the
// shared E-step scoring kernel (core.Scorer) with ID resolution, the
// Limits trust boundary, top-k selection and a reusable result arena.
// Construction precomputes the model-derived views (β transposes, ½·ln σ²
// constants, name→index tables); genclusd caches engines per model keyed
// by snapshot digest so concurrent traffic shares that work.
//
// Not safe for concurrent use — see the package comment.
type Engine struct {
	sc   *core.Scorer
	k    int
	topK int
	lim  Limits

	// Result arena, grown to the largest batch seen and reused: the
	// assignments themselves, one flat Θ backing array, and one flat top-k
	// backing array. Steady-state AssignBatch performs no allocation.
	results  []Assignment
	thetaBuf []float64
	topBuf   []ClusterProb

	// sorter is the shared descending-weight index sorter (selectTopK
	// reuses it across queries, so top-k selection allocates nothing in
	// steady state); its idx scratch is sized K once at construction.
	sorter core.DescWeightSorter
}

// NewEngine validates the model's fitted state and builds the assignment
// engine.
func NewEngine(m *core.Model, opts Options) (*Engine, error) {
	sc, err := core.NewScorer(m, opts.Epsilon)
	if err != nil {
		return nil, fmt.Errorf("infer: %w", err)
	}
	k := sc.K()
	topK := opts.TopK
	if topK == 0 {
		topK = 1
	}
	if topK < 0 {
		return nil, fmt.Errorf("infer: TopK = %d, want ≥ 0", opts.TopK)
	}
	if topK > k {
		topK = k
	}
	lim := opts.Limits
	if lim == (Limits{}) && !opts.Unbounded {
		lim = DefaultLimits()
	}
	e := &Engine{sc: sc, k: k, topK: topK, lim: lim}
	e.sorter.Idx = make([]int, k)
	return e, nil
}

// K returns the model's cluster count.
func (e *Engine) K() int { return e.k }

// TopK returns the configured top-k list length.
func (e *Engine) TopK() int { return e.topK }

// Assign scores a single query; it is AssignBatch for a one-element batch,
// with the same arena-lifetime rules on the returned Assignment.
func (e *Engine) Assign(q Query) (Assignment, error) {
	out, err := e.AssignBatch([]Query{q})
	if err != nil {
		return Assignment{}, err
	}
	return out[0], nil
}

// Validate checks a batch against the Limits bounds and resolves every
// name and index without scoring, returning the same typed *QueryError /
// *LimitError AssignBatch would. Unlike scoring, validation touches only
// the engine's immutable lookup tables, so it IS safe to call concurrently
// — genclusd validates each request on its own goroutine before it waits
// for the engine lock.
func (e *Engine) Validate(queries []Query) error {
	if e.lim.MaxBatch > 0 && len(queries) > e.lim.MaxBatch {
		return &LimitError{Query: -1, What: "batch size", Got: len(queries), Limit: e.lim.MaxBatch}
	}
	for i := range queries {
		if err := e.validate(i, &queries[i]); err != nil {
			return err
		}
	}
	return nil
}

// AssignBatch validates and scores a batch of queries, returning one
// Assignment per query in order. The whole batch is validated before any
// scoring: a bad query rejects the batch with a typed *QueryError or
// *LimitError and no partial results. The returned slice and its Theta/Top
// entries alias the engine's arena and stay valid until the next call.
func (e *Engine) AssignBatch(queries []Query) ([]Assignment, error) {
	if err := e.Validate(queries); err != nil {
		return nil, err
	}

	e.grow(len(queries))
	out := e.results[:len(queries)]
	for i := range queries {
		q := &queries[i]
		dst := e.thetaBuf[i*e.k : (i+1)*e.k : (i+1)*e.k]
		top := e.topBuf[i*e.topK : (i+1)*e.topK : (i+1)*e.topK]

		e.sc.Begin()
		for _, l := range q.Links {
			rel, _ := e.sc.RelationIndex(l.Relation)
			to, _ := e.sc.ObjectIndex(l.To)
			e.sc.AddLink(rel, to, l.Weight)
		}
		for _, co := range q.Terms {
			a, _ := e.sc.AttrIndex(co.Attr)
			for _, tc := range co.Terms {
				e.sc.AddTermCount(a, tc.Term, tc.Count)
			}
		}
		for _, no := range q.Numeric {
			a, _ := e.sc.AttrIndex(no.Attr)
			for _, x := range no.Values {
				e.sc.AddNumeric(a, x)
			}
		}
		iters := e.sc.Score(dst)

		e.selectTopK(top, dst)
		out[i] = Assignment{
			ID:          q.ID,
			Cluster:     top[0].Cluster,
			Theta:       dst,
			Top:         top,
			FoldInIters: iters,
		}
	}
	return out, nil
}

// validate enforces the Limits bounds and resolves every name and index in
// one query against the model, so the scoring pass runs on trusted input.
func (e *Engine) validate(i int, q *Query) error {
	if e.lim.MaxLinks > 0 && len(q.Links) > e.lim.MaxLinks {
		return &LimitError{Query: i, What: "links", Got: len(q.Links), Limit: e.lim.MaxLinks}
	}
	bad := func(format string, args ...any) error {
		return &QueryError{Query: i, ID: q.ID, Msg: fmt.Sprintf(format, args...)}
	}
	for _, l := range q.Links {
		if _, ok := e.sc.RelationIndex(l.Relation); !ok {
			return bad("unknown relation %q", l.Relation)
		}
		if _, ok := e.sc.ObjectIndex(l.To); !ok {
			return bad("link to unknown object %q", l.To)
		}
		if !(l.Weight > 0) || math.IsInf(l.Weight, 0) {
			return bad("link to %q has weight %v, want positive finite", l.To, l.Weight)
		}
	}
	terms, values := 0, 0
	for _, co := range q.Terms {
		a, ok := e.sc.AttrIndex(co.Attr)
		if !ok {
			return bad("unknown attribute %q", co.Attr)
		}
		if e.sc.AttrKind(a) != hin.Categorical {
			return bad("attribute %q is numeric, got term counts", co.Attr)
		}
		vocab := e.sc.VocabSize(a)
		terms += len(co.Terms)
		if e.lim.MaxTerms > 0 && terms > e.lim.MaxTerms {
			return &LimitError{Query: i, What: "term counts", Got: terms, Limit: e.lim.MaxTerms}
		}
		for _, tc := range co.Terms {
			if tc.Term < 0 || tc.Term >= vocab {
				return bad("attribute %q term %d outside vocabulary [0, %d)", co.Attr, tc.Term, vocab)
			}
			if !(tc.Count > 0) || math.IsInf(tc.Count, 0) {
				return bad("attribute %q term %d has count %v, want positive finite", co.Attr, tc.Term, tc.Count)
			}
		}
	}
	for _, no := range q.Numeric {
		a, ok := e.sc.AttrIndex(no.Attr)
		if !ok {
			return bad("unknown attribute %q", no.Attr)
		}
		if e.sc.AttrKind(a) != hin.Numeric {
			return bad("attribute %q is categorical, got numeric values", no.Attr)
		}
		values += len(no.Values)
		if e.lim.MaxValues > 0 && values > e.lim.MaxValues {
			return &LimitError{Query: i, What: "numeric observations", Got: values, Limit: e.lim.MaxValues}
		}
		for _, x := range no.Values {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return bad("attribute %q has non-finite observation %v", no.Attr, x)
			}
		}
	}
	return nil
}

// grow sizes the result arena for a batch of n queries, reusing prior
// capacity.
func (e *Engine) grow(n int) {
	if cap(e.results) < n {
		e.results = make([]Assignment, n)
	}
	e.results = e.results[:cap(e.results)]
	if need := n * e.k; cap(e.thetaBuf) < need {
		e.thetaBuf = make([]float64, need)
	}
	e.thetaBuf = e.thetaBuf[:cap(e.thetaBuf)]
	if need := n * e.topK; cap(e.topBuf) < need {
		e.topBuf = make([]ClusterProb, need)
	}
	e.topBuf = e.topBuf[:cap(e.topBuf)]
}

// selectTopK fills top with the len(top) most probable clusters of theta,
// descending by probability with ties broken by ascending cluster index.
// A full O(K log K) index sort over the engine's reusable scratch
// (core.DescWeightSorter — the system-wide "best first" comparator):
// deterministic, allocation-free, and cheap even at top-k = K.
func (e *Engine) selectTopK(top []ClusterProb, theta []float64) {
	e.sorter.Reset(theta)
	sort.Sort(&e.sorter)
	for j := range top {
		c := e.sorter.Idx[j]
		top[j] = ClusterProb{Cluster: c, P: theta[c]}
	}
}
