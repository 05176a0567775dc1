// Package hin models heterogeneous information networks as defined in §2.1
// of the paper: a directed graph G = (V, E, W) whose objects carry explicit
// types (τ: V → A), whose links carry explicit relation types (φ: E → R) and
// positive weights, and whose objects are associated with (possibly
// incomplete) attribute observations — categorical bags of terms (e.g. paper
// titles) or lists of numeric readings (e.g. sensor temperatures).
//
// Networks are constructed through a Builder, validated once, and immutable
// afterwards. The links are stored once, sorted by (From, Rel, To) with
// per-object offsets, so each object's out-links are one contiguous run
// (OutEdges); a merged in-link view is built lazily beside it. The
// clustering algorithms stream over both without per-query allocation.
package hin

import (
	"fmt"
	"sort"
	"sync"
)

// Kind distinguishes the two attribute families the paper models (§3.2):
// categorical text attributes with term counts, and numeric attributes with
// Gaussian mixture components.
type Kind int

const (
	// Categorical attributes hold sparse term counts over a fixed vocabulary.
	Categorical Kind = iota
	// Numeric attributes hold lists of real-valued observations.
	Numeric
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// AttrSpec declares an attribute: its name, kind, and (for categorical
// attributes) vocabulary size.
type AttrSpec struct {
	Name      string // attribute name, unique per network
	Kind      Kind   // Categorical or Numeric
	VocabSize int    // required > 0 for Categorical, ignored for Numeric
}

// Object is a typed node.
type Object struct {
	ID   string // externally meaningful identifier, unique in the network
	Type string // object type name (τ)
}

// Edge is a typed, weighted, directed link. From/To are dense object
// indices; Rel is a dense relation index.
type Edge struct {
	From   int     // dense index of the source object
	To     int     // dense index of the target object
	Rel    int     // dense relation id (φ)
	Weight float64 // positive finite link weight (W)
}

// TermCount is one entry of a sparse categorical observation, in every
// wire document's compact {"t":term,"c":count} shape.
type TermCount struct {
	Term  int     `json:"t"` // term index within the attribute's vocabulary
	Count float64 `json:"c"` // accumulated positive count (c_{v,l})
}

// Network is an immutable heterogeneous information network.
type Network struct {
	objects   []Object
	idIndex   map[string]int
	typeIndex map[string][]int

	relations []string
	relIndex  map[string]int

	edges    []Edge // sorted by (From, Rel, To): the one out-link store
	outStart []int  // CSR offsets into edges by From
	inStart  []int  // in-link counts per object, as CSR offsets by To

	// The lazily-built merged in-link view (see PrepareCSR). Built at most
	// once per network; csrOnce makes concurrent fits of a shared network
	// safe.
	csrOnce  sync.Once
	inFrom   []int
	inRel    []int
	inWeight []float64

	attrs     []AttrSpec
	attrIndex map[string]int
	// catObs[a][v] is the sparse term-count list of attribute a on object v
	// (nil when the object has no observation — the "incomplete" case).
	catObs [][][]TermCount
	// numObs[a][v] is the numeric observation list (nil when absent).
	numObs [][][]float64
}

// NumObjects returns |V|.
func (n *Network) NumObjects() int { return len(n.objects) }

// NumEdges returns |E|.
func (n *Network) NumEdges() int { return len(n.edges) }

// NumRelations returns |R|.
func (n *Network) NumRelations() int { return len(n.relations) }

// NumAttrs returns the number of declared attributes.
func (n *Network) NumAttrs() int { return len(n.attrs) }

// Object returns the object at dense index v.
func (n *Network) Object(v int) Object { return n.objects[v] }

// IndexOf returns the dense index of the object with the given ID.
func (n *Network) IndexOf(id string) (int, bool) {
	v, ok := n.idIndex[id]
	return v, ok
}

// TypeOf returns the object type of index v.
func (n *Network) TypeOf(v int) string { return n.objects[v].Type }

// Types returns all object type names, sorted.
func (n *Network) Types() []string {
	out := make([]string, 0, len(n.typeIndex))
	for t := range n.typeIndex {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// ObjectsOfType returns the dense indices of objects with the given type.
// The returned slice is shared; callers must not mutate it.
func (n *Network) ObjectsOfType(t string) []int { return n.typeIndex[t] }

// RelationName returns the name of relation index r.
func (n *Network) RelationName(r int) string { return n.relations[r] }

// RelationID returns the dense index of the named relation.
func (n *Network) RelationID(name string) (int, bool) {
	r, ok := n.relIndex[name]
	return r, ok
}

// Relations returns all relation names indexed by dense relation id. The
// returned slice is shared; callers must not mutate it.
func (n *Network) Relations() []string { return n.relations }

// Edges returns all edges sorted by (From, Rel, To), duplicate links in the
// order they were added. Shared; do not mutate.
func (n *Network) Edges() []Edge { return n.edges }

// OutEdges returns the out-links of object v: its run of Edges(), so sorted
// by (Rel, To) with duplicates in the order they were added (shared slice;
// do not mutate).
func (n *Network) OutEdges(v int) []Edge { return n.edges[n.outStart[v]:n.outStart[v+1]] }

// OutCSR exposes the out-link store for hot loops, without a copy: edges
// is Edges(), and start holds NumObjects+1 offsets into it, object v's
// out-links being edges[start[v]:start[v+1]]. The builder has checked
// every edge's endpoints and relation id against the network. Shared;
// callers must not mutate.
func (n *Network) OutCSR() (start []int, edges []Edge) { return n.outStart, n.edges }

// OutDegree returns the number of out-links of v.
func (n *Network) OutDegree(v int) int { return n.outStart[v+1] - n.outStart[v] }

// InDegree returns the number of in-links of v.
func (n *Network) InDegree(v int) int { return n.inStart[v+1] - n.inStart[v] }

// Attr returns the spec of attribute index a.
func (n *Network) Attr(a int) AttrSpec { return n.attrs[a] }

// AttrID returns the dense index of the named attribute.
func (n *Network) AttrID(name string) (int, bool) {
	a, ok := n.attrIndex[name]
	return a, ok
}

// Attrs returns all attribute specs (shared; do not mutate).
func (n *Network) Attrs() []AttrSpec { return n.attrs }

// TermCounts returns the categorical observation of attribute a on object v,
// or nil when v has none (incomplete attribute). Panics if a is numeric.
func (n *Network) TermCounts(a, v int) []TermCount {
	if n.attrs[a].Kind != Categorical {
		panic(fmt.Sprintf("hin: TermCounts on %s attribute %q", n.attrs[a].Kind, n.attrs[a].Name))
	}
	return n.catObs[a][v]
}

// NumericObs returns the numeric observations of attribute a on object v, or
// nil when v has none. Panics if a is categorical.
func (n *Network) NumericObs(a, v int) []float64 {
	if n.attrs[a].Kind != Numeric {
		panic(fmt.Sprintf("hin: NumericObs on %s attribute %q", n.attrs[a].Kind, n.attrs[a].Name))
	}
	return n.numObs[a][v]
}

// AttrTermCounts returns the per-object sparse term-count lists of
// categorical attribute a, indexed by dense object id (nil entries mark
// objects without an observation). Shared; callers must not mutate. Hot
// loops use it to walk observations without per-object accessor calls.
// Panics if a is numeric.
func (n *Network) AttrTermCounts(a int) [][]TermCount {
	if n.attrs[a].Kind != Categorical {
		panic(fmt.Sprintf("hin: AttrTermCounts on %s attribute %q", n.attrs[a].Kind, n.attrs[a].Name))
	}
	return n.catObs[a]
}

// AttrNumericObs returns the per-object numeric observation lists of
// numeric attribute a, indexed by dense object id (nil entries mark objects
// without an observation). Shared; callers must not mutate. Panics if a is
// categorical.
func (n *Network) AttrNumericObs(a int) [][]float64 {
	if n.attrs[a].Kind != Numeric {
		panic(fmt.Sprintf("hin: AttrNumericObs on %s attribute %q", n.attrs[a].Kind, n.attrs[a].Name))
	}
	return n.numObs[a]
}

// HasObservation reports whether object v carries any observation of
// attribute a — the indicator 1{v∈V_X} in the paper's update rules.
func (n *Network) HasObservation(a, v int) bool {
	switch n.attrs[a].Kind {
	case Categorical:
		return len(n.catObs[a][v]) > 0
	case Numeric:
		return len(n.numObs[a][v]) > 0
	default:
		return false
	}
}

// ObservationCount returns the total number of attribute observations of
// attribute a on object v (term-count mass for categorical attributes).
func (n *Network) ObservationCount(a, v int) float64 {
	switch n.attrs[a].Kind {
	case Categorical:
		var s float64
		for _, tc := range n.catObs[a][v] {
			s += tc.Count
		}
		return s
	case Numeric:
		return float64(len(n.numObs[a][v]))
	default:
		return 0
	}
}

// Stats summarizes a network for logs and documentation.
type Stats struct {
	Objects      int            // |V|
	Edges        int            // |E|
	Relations    int            // |R|
	Attributes   int            // declared attributes
	TypeCounts   map[string]int // object type → #objects
	RelCounts    map[string]int // relation name → #links
	ObservedObjs map[string]int // attribute name → #objects with ≥1 observation
}

// Stats computes summary statistics.
func (n *Network) Stats() Stats {
	s := Stats{
		Objects:      n.NumObjects(),
		Edges:        n.NumEdges(),
		Relations:    n.NumRelations(),
		Attributes:   n.NumAttrs(),
		TypeCounts:   make(map[string]int),
		RelCounts:    make(map[string]int),
		ObservedObjs: make(map[string]int),
	}
	for t, objs := range n.typeIndex {
		s.TypeCounts[t] = len(objs)
	}
	for _, e := range n.edges {
		s.RelCounts[n.relations[e.Rel]]++
	}
	for a, spec := range n.attrs {
		count := 0
		for v := 0; v < n.NumObjects(); v++ {
			if n.HasObservation(a, v) {
				count++
			}
		}
		s.ObservedObjs[spec.Name] = count
	}
	return s
}

// String renders the stats in a compact single line.
func (s Stats) String() string {
	return fmt.Sprintf("objects=%d edges=%d relations=%d attrs=%d types=%v", s.Objects, s.Edges, s.Relations, s.Attributes, s.TypeCounts)
}
