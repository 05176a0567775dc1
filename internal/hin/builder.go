package hin

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
)

// Builder incrementally assembles a Network. It is not safe for concurrent
// use. Build validates the accumulated definition and freezes it into an
// immutable Network.
type Builder struct {
	objects []Object
	idIndex map[string]int

	relations []string
	relIndex  map[string]int

	edges []Edge

	attrs     []AttrSpec
	attrIndex map[string]int
	catObs    [][][]TermCount // attr → obj → term counts in call order
	numObs    [][][]float64   // attr → obj → observations

	err error // first definition error, reported by Build
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{
		idIndex:   make(map[string]int),
		relIndex:  make(map[string]int),
		attrIndex: make(map[string]int),
	}
}

func (b *Builder) fail(format string, args ...interface{}) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// AddObject registers an object with a unique ID and a type name, returning
// its dense index. Re-adding an existing ID with the same type is a no-op;
// with a different type it is an error (reported by Build).
func (b *Builder) AddObject(id, objType string) int {
	if id == "" || objType == "" {
		b.fail("hin: object needs non-empty id and type (id=%q type=%q)", id, objType)
		return -1
	}
	if v, ok := b.idIndex[id]; ok {
		if b.objects[v].Type != objType {
			b.fail("hin: object %q re-added with type %q, was %q", id, objType, b.objects[v].Type)
		}
		return v
	}
	v := len(b.objects)
	b.objects = append(b.objects, Object{ID: id, Type: objType})
	b.idIndex[id] = v
	return v
}

// Relation interns a relation name and returns its dense index.
func (b *Builder) Relation(name string) int {
	if name == "" {
		b.fail("hin: empty relation name")
		return -1
	}
	if r, ok := b.relIndex[name]; ok {
		return r
	}
	r := len(b.relations)
	b.relations = append(b.relations, name)
	b.relIndex[name] = r
	return r
}

// AddLink adds a directed weighted edge between existing objects. Weights
// must be positive and finite (the paper's W).
func (b *Builder) AddLink(fromID, toID, relation string, weight float64) {
	from, okF := b.idIndex[fromID]
	to, okT := b.idIndex[toID]
	if !okF || !okT {
		b.fail("hin: link %s -[%s]-> %s references unknown object", fromID, relation, toID)
		return
	}
	b.AddLinkByIndex(from, to, relation, weight)
}

// AddLinkByIndex is AddLink for callers that already hold dense indices
// (generators adding millions of edges avoid the map lookups).
func (b *Builder) AddLinkByIndex(from, to int, relation string, weight float64) {
	if from < 0 || from >= len(b.objects) || to < 0 || to >= len(b.objects) {
		b.fail("hin: link endpoint index out of range (%d, %d)", from, to)
		return
	}
	if !(weight > 0) || math.IsInf(weight, 0) || math.IsNaN(weight) {
		b.fail("hin: link %s -> %s has invalid weight %v (must be positive finite)", b.objects[from].ID, b.objects[to].ID, weight)
		return
	}
	r := b.Relation(relation)
	if r < 0 {
		return
	}
	b.edges = append(b.edges, Edge{From: from, To: to, Rel: r, Weight: weight})
}

// DeclareAttribute registers an attribute. Categorical attributes need a
// positive vocabulary size. Redeclaring with identical spec is a no-op.
func (b *Builder) DeclareAttribute(spec AttrSpec) int {
	if spec.Name == "" {
		b.fail("hin: attribute needs a name")
		return -1
	}
	if spec.Kind == Categorical && spec.VocabSize <= 0 {
		b.fail("hin: categorical attribute %q needs VocabSize > 0", spec.Name)
		return -1
	}
	if spec.Kind != Categorical && spec.Kind != Numeric {
		b.fail("hin: attribute %q has unknown kind %d", spec.Name, spec.Kind)
		return -1
	}
	if a, ok := b.attrIndex[spec.Name]; ok {
		if b.attrs[a] != spec {
			b.fail("hin: attribute %q redeclared with different spec", spec.Name)
		}
		return a
	}
	a := len(b.attrs)
	b.attrs = append(b.attrs, spec)
	b.attrIndex[spec.Name] = a
	b.catObs = append(b.catObs, nil)
	b.numObs = append(b.numObs, nil)
	return a
}

// AddTermCount accumulates `count` occurrences of `term` for the categorical
// attribute on the object (c_{v,l} in Eq. 3).
func (b *Builder) AddTermCount(objID, attr string, term int, count float64) {
	v, ok := b.idIndex[objID]
	if !ok {
		b.fail("hin: observation on unknown object %q", objID)
		return
	}
	b.AddTermCountByIndex(v, attr, term, count)
}

// AddTermCountByIndex is AddTermCount with a dense object index.
func (b *Builder) AddTermCountByIndex(v int, attr string, term int, count float64) {
	a, ok := b.attrIndex[attr]
	if !ok {
		b.fail("hin: observation on undeclared attribute %q", attr)
		return
	}
	if b.termCountOK(v, a, term, count) {
		b.catObs[a] = growTo(b.catObs[a], v)
		b.catObs[a][v] = append(b.catObs[a][v], TermCount{Term: term, Count: count})
	}
}

// addTermCounts is AddTermCountByIndex for a list of calls, with a dense
// attribute index. When the object has no terms of the attribute yet the
// Builder keeps tcs itself: the caller must not modify it afterwards, and
// Build sorts it in place unless its terms are strictly increasing.
func (b *Builder) addTermCounts(v, a int, tcs []TermCount) {
	for _, tc := range tcs {
		if !b.termCountOK(v, a, tc.Term, tc.Count) {
			return
		}
	}
	b.catObs[a] = growTo(b.catObs[a], v)
	if len(b.catObs[a][v]) == 0 {
		b.catObs[a][v] = tcs[:len(tcs):len(tcs)]
	} else {
		b.catObs[a][v] = append(b.catObs[a][v], tcs...)
	}
}

func (b *Builder) termCountOK(v, a int, term int, count float64) bool {
	spec := &b.attrs[a]
	switch {
	case spec.Kind != Categorical:
		b.fail("hin: term observation on %s attribute %q", spec.Kind, spec.Name)
	case v < 0 || v >= len(b.objects):
		b.fail("hin: observation object index %d out of range", v)
	case term < 0 || term >= spec.VocabSize:
		b.fail("hin: term %d outside vocabulary of %q (size %d)", term, spec.Name, spec.VocabSize)
	case !(count > 0) || math.IsInf(count, 0) || math.IsNaN(count):
		b.fail("hin: term count must be positive finite, got %v", count)
	default:
		return true
	}
	return false
}

// growTo extends a per-object list so that index v is in range.
func growTo[T any](lists [][]T, v int) [][]T {
	if v < len(lists) {
		return lists
	}
	return append(lists, make([][]T, v+1-len(lists))...)
}

// AddNumeric appends a numeric observation of the attribute to the object
// (one element of v[X] in Eq. 4).
func (b *Builder) AddNumeric(objID, attr string, value float64) {
	v, ok := b.idIndex[objID]
	if !ok {
		b.fail("hin: observation on unknown object %q", objID)
		return
	}
	b.AddNumericByIndex(v, attr, value)
}

// AddNumericByIndex is AddNumeric with a dense object index.
func (b *Builder) AddNumericByIndex(v int, attr string, value float64) {
	a, ok := b.attrIndex[attr]
	if !ok {
		b.fail("hin: observation on undeclared attribute %q", attr)
		return
	}
	if b.numericOK(v, a, value) {
		b.numObs[a] = growTo(b.numObs[a], v)
		b.numObs[a][v] = append(b.numObs[a][v], value)
	}
}

// addNumerics is AddNumericByIndex for a list of calls, with a dense
// attribute index, keeping xs itself as addTermCounts keeps its list.
func (b *Builder) addNumerics(v, a int, xs []float64) {
	for _, x := range xs {
		if !b.numericOK(v, a, x) {
			return
		}
	}
	b.numObs[a] = growTo(b.numObs[a], v)
	if len(b.numObs[a][v]) == 0 {
		b.numObs[a][v] = xs[:len(xs):len(xs)]
	} else {
		b.numObs[a][v] = append(b.numObs[a][v], xs...)
	}
}

func (b *Builder) numericOK(v, a int, value float64) bool {
	spec := &b.attrs[a]
	switch {
	case spec.Kind != Numeric:
		b.fail("hin: numeric observation on %s attribute %q", spec.Kind, spec.Name)
	case v < 0 || v >= len(b.objects):
		b.fail("hin: observation object index %d out of range", v)
	case math.IsInf(value, 0) || math.IsNaN(value):
		b.fail("hin: numeric observation must be finite, got %v", value)
	default:
		return true
	}
	return false
}

// Build validates the accumulated definition and returns the immutable
// Network. The Builder may be reused afterwards, but networks built earlier
// are unaffected.
func (b *Builder) Build() (*Network, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.objects) == 0 {
		return nil, fmt.Errorf("hin: network has no objects")
	}
	n := &Network{
		objects:   append([]Object(nil), b.objects...),
		idIndex:   maps.Clone(b.idIndex),
		typeIndex: make(map[string][]int),
		relations: append([]string(nil), b.relations...),
		relIndex:  maps.Clone(b.relIndex),
		edges:     append([]Edge(nil), b.edges...),
		attrs:     append([]AttrSpec(nil), b.attrs...),
		attrIndex: maps.Clone(b.attrIndex),
	}
	for v, o := range n.objects {
		n.typeIndex[o.Type] = append(n.typeIndex[o.Type], v)
	}

	// CSR out-adjacency: sort edges by (From, Rel, To) for deterministic
	// iteration order, then compute offsets.
	sort.Slice(n.edges, func(i, j int) bool {
		a, bb := n.edges[i], n.edges[j]
		if a.From != bb.From {
			return a.From < bb.From
		}
		if a.Rel != bb.Rel {
			return a.Rel < bb.Rel
		}
		return a.To < bb.To
	})
	nObj := len(n.objects)
	n.outStart = make([]int, nObj+1)
	for _, e := range n.edges {
		n.outStart[e.From+1]++
	}
	for v := 0; v < nObj; v++ {
		n.outStart[v+1] += n.outStart[v]
	}

	// In-link offsets by To. The merged in-link view itself is built
	// lazily by Network.PrepareCSR on first use.
	n.inStart = make([]int, nObj+1)
	for _, e := range n.edges {
		n.inStart[e.To+1]++
	}
	for v := 0; v < nObj; v++ {
		n.inStart[v+1] += n.inStart[v]
	}

	// Freeze observations into sorted sparse slices. Each attribute's lists
	// share one backing array, cut with full slice expressions so no list
	// can grow into its neighbour.
	n.catObs = make([][][]TermCount, len(n.attrs))
	n.numObs = make([][][]float64, len(n.attrs))
	for a, spec := range n.attrs {
		switch spec.Kind {
		case Categorical:
			for v, tcs := range b.catObs[a] {
				b.catObs[a][v] = mergeTerms(tcs)
			}
			n.catObs[a] = freeze(b.catObs[a], nObj)
		case Numeric:
			n.numObs[a] = freeze(b.numObs[a], nObj)
		}
	}
	return n, nil
}

// freeze copies per-object lists into one backing array, returning nObj
// lists (nil where an object has none).
func freeze[T any](lists [][]T, nObj int) [][]T {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([][]T, nObj)
	all := make([]T, 0, total)
	for v, l := range lists {
		if len(l) == 0 {
			continue
		}
		start := len(all)
		all = append(all, l...)
		out[v] = all[start:len(all):len(all)]
	}
	return out
}

// mergeTerms sorts one object's term counts, held in AddTermCount call
// order, by term and sums repeated terms, in place. The sort is stable and
// each sum is a left fold in call order, so every count is bit for bit what
// accumulating m[term] += count in a map gives. A merged list merges to
// itself without a write, and terms added after a Build extend the same
// left folds, so Build may merge the Builder's own lists.
func mergeTerms(tcs []TermCount) []TermCount {
	if strictlyIncreasing(tcs) {
		return tcs
	}
	slices.SortStableFunc(tcs, byTerm)
	w := 0
	for _, tc := range tcs {
		if w > 0 && tcs[w-1].Term == tc.Term {
			tcs[w-1].Count += tc.Count
			continue
		}
		tcs[w] = tc
		w++
	}
	return tcs[:w]
}

func strictlyIncreasing(tcs []TermCount) bool {
	for i := 1; i < len(tcs); i++ {
		if tcs[i].Term <= tcs[i-1].Term {
			return false
		}
	}
	return true
}

func byTerm(x, y TermCount) int { return cmp.Compare(x.Term, y.Term) }
