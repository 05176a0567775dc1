// Package infer is the online inference subsystem: fold-in assignment of
// out-of-sample objects against a fitted GenClus model, without refitting.
//
// The paper's generative model (Sun, Aggarwal, Han — VLDB 2012) gives a
// closed-form posterior p(k | object) from the learned memberships Θ, the
// relation strengths γ and the per-attribute component models — and its
// incomplete-attributes design means a query object described by links to
// known objects plus *any subset* of attribute observations can be scored
// with the same E-step arithmetic the fit runs: the γ-weighted link term
// over the neighbors' frozen Θ rows, one responsibility term per observed
// attribute (a missing attribute simply contributes no term), and the
// epsilon-floored normalization. Queries with attribute observations
// iterate their own mixing proportions to a fixed point; every model
// parameter stays frozen, so inference is read-only and embarrassingly
// cheap next to a refit.
//
// Engine is the serving form: it resolves ID-based queries against the
// model's object/relation/attribute tables, validates them behind Limits
// (the assign trust boundary), and scores batches through a reusable
// scratch arena — steady-state AssignBatch performs no allocation. The
// scoring arithmetic itself lives in core.Scorer, shared instruction for
// instruction with the EM loop, which is what makes assignment of a
// converged model's own training objects reproduce its Θ rows bit for bit
// (see TestAssignTrainingObjectsGolden).
//
// An Engine is NOT safe for concurrent use: it owns one scratch arena.
// genclusd holds a per-engine lock for each request's pass (see
// internal/server); local callers create one engine per goroutine or lock
// around it.
package infer

import (
	"fmt"

	"genclus/internal/hin"
)

// Link is one directed link from a query object to a known (training)
// object of the model, under a named relation.
type Link struct {
	// Relation is the relation name (must carry a learned strength in the
	// model).
	Relation string
	// To is the ID of the known object the query links to.
	To string
	// Weight is the positive finite link weight.
	Weight float64
}

// CatObs is a query object's observation of one categorical attribute: a
// sparse bag of term counts over the attribute's vocabulary.
type CatObs struct {
	// Attr is the attribute name (must be a categorical attribute the model
	// fitted).
	Attr string
	// Terms are the observed term counts; indices must lie inside the
	// model's vocabulary and counts must be positive and finite.
	Terms []hin.TermCount
}

// NumObs is a query object's observation list of one numeric attribute.
type NumObs struct {
	// Attr is the attribute name (must be a numeric attribute the model
	// fitted).
	Attr string
	// Values are the observed readings; every value must be finite.
	Values []float64
}

// Query describes one object to assign: links into the known network plus
// optional partial attribute observations. A query with neither links nor
// observations carries no information and receives the uniform posterior.
type Query struct {
	// ID is an optional caller-side identifier echoed on the Assignment.
	ID string
	// Links are the query's out-links to known objects.
	Links []Link
	// Terms are categorical observations, at most one entry per attribute.
	Terms []CatObs
	// Numeric are numeric observations, at most one entry per attribute.
	Numeric []NumObs
}

// ClusterProb is one entry of an assignment's top-k list.
type ClusterProb struct {
	// Cluster is the cluster index.
	Cluster int
	// P is the posterior probability of that cluster.
	P float64
}

// Assignment is one query's scored result. Theta and Top alias the engine's
// reusable arena: they are valid until the next AssignBatch/Assign call on
// the same engine, and callers that retain them across calls must copy.
type Assignment struct {
	// ID echoes Query.ID.
	ID string
	// Cluster is the argmax hard assignment (lowest index wins ties —
	// the same rule as Result.HardLabels).
	Cluster int
	// Theta is the soft posterior row (length K, sums to 1).
	Theta []float64
	// Top lists the TopK most probable clusters, descending probability,
	// ties broken by ascending cluster index.
	Top []ClusterProb
	// FoldInIters is the number of fold-in iterations the query took: 1
	// when the posterior is closed-form (no attribute observations), more
	// when the query's own mixing proportions had to be iterated to a
	// fixed point.
	FoldInIters int
}

// Limits bounds what one AssignBatch call may make the engine chew on —
// the assign trust boundary. A zero field means "no limit on that
// dimension"; the zero value disables bounding entirely. Serving paths
// should start from DefaultLimits.
type Limits struct {
	// MaxBatch caps the number of queries per AssignBatch call.
	MaxBatch int
	// MaxLinks caps the links of a single query.
	MaxLinks int
	// MaxTerms caps the total term-count observations of a single query.
	MaxTerms int
	// MaxValues caps the total numeric observations of a single query.
	MaxValues int
}

// DefaultLimits is the bound serving paths apply: generous for real
// queries, tight enough that a single hostile request cannot schedule
// unbounded scoring work.
func DefaultLimits() Limits {
	return Limits{
		MaxBatch:  1024,
		MaxLinks:  4096,
		MaxTerms:  4096,
		MaxValues: 4096,
	}
}

// Options configures an Engine. The zero value takes the documented
// defaults.
type Options struct {
	// TopK is the number of entries in every Assignment.Top (default 1;
	// clamped to K).
	TopK int
	// Epsilon overrides the Θ floor posterior entries are floored at. Zero
	// (the default) takes the model's own floor (Result.Epsilon, or the fit
	// default 1e-9 when the model recorded none), which bitwise
	// reproduction of training rows requires. The storage precision always
	// comes from the model.
	Epsilon float64
	// Limits bounds AssignBatch inputs; the zero value takes DefaultLimits.
	// Use Unbounded to disable bounding explicitly.
	Limits Limits
	// Unbounded disables the Limits defaulting: a zero Limits then means
	// "no limits" instead of DefaultLimits. Offline tools (the CLI's
	// -assign mode) set it; the serving path never does.
	Unbounded bool
}

// LimitError reports a query batch rejected because it exceeded a Limits
// bound. Serving paths map it to 413.
type LimitError struct {
	// Query is the offending query's index in the batch, or -1 when the
	// batch itself overflowed.
	Query int
	// What names the exceeded dimension.
	What string
	// Got and Limit are the offending and permitted sizes.
	Got, Limit int
}

// Error implements the error interface.
func (e *LimitError) Error() string {
	if e.Query < 0 {
		return fmt.Sprintf("infer: %s %d exceeds limit %d", e.What, e.Got, e.Limit)
	}
	return fmt.Sprintf("infer: query %d: %s %d exceeds limit %d", e.Query, e.What, e.Got, e.Limit)
}

// QueryError reports a malformed or unresolvable query — an unknown object,
// relation or attribute, an out-of-vocabulary term, or a non-finite weight,
// count or value. Serving paths map it to 400.
type QueryError struct {
	// Query is the offending query's index in the batch.
	Query int
	// ID echoes the query's ID, when set.
	ID string
	// Msg describes what was rejected.
	Msg string
}

// Error implements the error interface.
func (e *QueryError) Error() string {
	if e.ID != "" {
		return fmt.Sprintf("infer: query %d (id %q): %s", e.Query, e.ID, e.Msg)
	}
	return fmt.Sprintf("infer: query %d: %s", e.Query, e.Msg)
}
