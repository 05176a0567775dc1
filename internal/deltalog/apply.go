package deltalog

import (
	"maps"
	"slices"

	"genclus/internal/hin"
)

// edgeKey identifies an edge by dense endpoint and relation indices for
// removal matching.
type edgeKey struct {
	from, to, rel int
}

// Apply materializes the next view generation: the mutation, already past
// Decode, is validated against the network's actual content and replayed
// with it into a fresh Builder via hin.CloneInto. The input network is
// never touched — callers holding it (in-flight fits, assigns, drift
// scoring) keep a consistent snapshot. Semantic contradictions come back
// as *ApplyError; the returned network, when non-nil, is fully built; its
// merged in-link view is left to the first reader that needs it
// (symmetric propagation or a baseline), as on an uploaded network.
//
// Determinism: Builder.Build canonicalizes edge order and observation
// storage, so Apply(n, m) is bit-for-bit the network a from-scratch build
// of the mutated content would produce, independent of mutation history
// chunking. Warm-start refits of generation G therefore reproduce a manual
// fit of the same generation exactly.
func Apply(n *hin.Network, m *Mutation) (*hin.Network, error) {
	switch m.Op {
	case OpEdges:
		return applyEdges(n, m)
	case OpObjects:
		return applyObjects(n, m)
	case OpAttributes:
		return applyAttributes(n, m)
	}
	return nil, applyErrf("unknown mutation op %q", m.Op)
}

func applyEdges(n *hin.Network, m *Mutation) (*hin.Network, error) {
	// Resolve removals to dense keys up front so unknown references fail
	// before any building happens. The count tracks parallel-edge triples:
	// one EdgeRef removes every matching edge, duplicated refs are
	// redundant but harmless.
	remove := make(map[edgeKey]bool, len(m.Remove))
	matched := make(map[edgeKey]bool, len(m.Remove))
	for _, ref := range m.Remove {
		from, ok := n.IndexOf(ref.From)
		if !ok {
			return nil, applyErrf("remove: unknown object %q", ref.From)
		}
		to, ok := n.IndexOf(ref.To)
		if !ok {
			return nil, applyErrf("remove: unknown object %q", ref.To)
		}
		rel, ok := n.RelationID(ref.Relation)
		if !ok {
			return nil, applyErrf("remove: unknown relation %q", ref.Relation)
		}
		remove[edgeKey{from, to, rel}] = true
	}
	for _, l := range m.Add {
		if _, ok := n.IndexOf(l.From); !ok {
			return nil, applyErrf("add: unknown object %q", l.From)
		}
		if _, ok := n.IndexOf(l.To); !ok {
			return nil, applyErrf("add: unknown object %q", l.To)
		}
	}
	b := hin.NewBuilder()
	hin.CloneInto(b, n, func(e hin.Edge) bool {
		k := edgeKey{e.From, e.To, e.Rel}
		if remove[k] {
			matched[k] = true
			return false
		}
		return true
	}, nil)
	for k := range remove {
		if !matched[k] {
			return nil, applyErrf("remove: no edge %s -[%s]-> %s",
				n.Object(k.from).ID, n.RelationName(k.rel), n.Object(k.to).ID)
		}
	}
	for _, l := range m.Add {
		b.AddLink(l.From, l.To, l.Relation, l.Weight)
	}
	return build(b)
}

func applyObjects(n *hin.Network, m *Mutation) (*hin.Network, error) {
	added := make(map[string]bool, len(m.Objects))
	for _, o := range m.Objects {
		if _, exists := n.IndexOf(o.ID); exists {
			return nil, applyErrf("objects: id %q already exists", o.ID)
		}
		added[o.ID] = true
		if err := checkObs(n, o.ID, o.Terms, o.Numeric); err != nil {
			return nil, err
		}
	}
	for _, l := range m.Links {
		if _, ok := n.IndexOf(l.From); !ok && !added[l.From] {
			return nil, applyErrf("links: unknown object %q", l.From)
		}
		if _, ok := n.IndexOf(l.To); !ok && !added[l.To] {
			return nil, applyErrf("links: unknown object %q", l.To)
		}
	}
	b := hin.NewBuilder()
	hin.CloneInto(b, n, nil, nil)
	for _, o := range m.Objects {
		b.AddObject(o.ID, o.Type)
		addObs(b, o.ID, o.Terms, o.Numeric)
	}
	for _, l := range m.Links {
		b.AddLink(l.From, l.To, l.Relation, l.Weight)
	}
	return build(b)
}

func applyAttributes(n *hin.Network, m *Mutation) (*hin.Network, error) {
	// patched[objID] is the set of attribute names whose observations the
	// patch replaces; CloneInto drops exactly those, then the patch's lists
	// (possibly empty — a clear) are added back.
	patched := make(map[string]map[string]bool, len(m.Set))
	for _, p := range m.Set {
		if _, ok := n.IndexOf(p.ID); !ok {
			return nil, applyErrf("set: unknown object %q", p.ID)
		}
		if err := checkObs(n, p.ID, p.Terms, p.Numeric); err != nil {
			return nil, err
		}
		attrs := make(map[string]bool, len(p.Terms)+len(p.Numeric))
		for attr := range p.Terms {
			attrs[attr] = true
		}
		for attr := range p.Numeric {
			attrs[attr] = true
		}
		patched[p.ID] = attrs
	}
	b := hin.NewBuilder()
	hin.CloneInto(b, n, nil, func(objID, attr string) bool {
		return !patched[objID][attr]
	})
	for _, p := range m.Set {
		addObs(b, p.ID, p.Terms, p.Numeric)
	}
	return build(b)
}

// build builds the next view, reporting a Builder error as an
// *ApplyError.
func build(b *hin.Builder) (*hin.Network, error) {
	net, err := b.Build()
	if err != nil {
		return nil, &ApplyError{Msg: err.Error()}
	}
	return net, nil
}

// checkObs validates one object's observation maps against the network's
// declared attributes: the attribute must exist, its kind must match the
// map it appears in, and categorical terms must lie inside the declared
// vocabulary. Each map is walked in attribute name order, so the error is
// a function of the mutation.
func checkObs(n *hin.Network, objID string, terms map[string][]TermCount, numeric map[string][]float64) error {
	for _, attr := range slices.Sorted(maps.Keys(terms)) {
		tcs := terms[attr]
		a, ok := n.AttrID(attr)
		if !ok {
			return applyErrf("object %q: unknown attribute %q", objID, attr)
		}
		spec := n.Attr(a)
		if spec.Kind != hin.Categorical {
			return applyErrf("object %q: attribute %q is numeric, not categorical", objID, attr)
		}
		for _, tc := range tcs {
			if tc.Term >= spec.VocabSize {
				return applyErrf("object %q: attribute %q term %d outside vocabulary of %d", objID, attr, tc.Term, spec.VocabSize)
			}
		}
	}
	for _, attr := range slices.Sorted(maps.Keys(numeric)) {
		a, ok := n.AttrID(attr)
		if !ok {
			return applyErrf("object %q: unknown attribute %q", objID, attr)
		}
		if n.Attr(a).Kind != hin.Numeric {
			return applyErrf("object %q: attribute %q is categorical, not numeric", objID, attr)
		}
	}
	return nil
}

// addObs replays one object's observation maps into the builder. Map
// iteration order does not affect the result: distinct attributes feed
// distinct observation lists, entries within one attribute keep their
// slice order, and Build canonicalizes term storage.
func addObs(b *hin.Builder, objID string, terms map[string][]TermCount, numeric map[string][]float64) {
	for attr, tcs := range terms {
		for _, tc := range tcs {
			b.AddTermCount(objID, attr, tc.Term, tc.Count)
		}
	}
	for attr, xs := range numeric {
		for _, x := range xs {
			b.AddNumeric(objID, attr, x)
		}
	}
}

// Touched returns the IDs of objects a mutation bears evidence about — the
// endpoints of added and removed edges, newly added objects, and patched
// objects — in first-appearance order with duplicates removed. The refit
// supervisor samples these for drift scoring.
func (m *Mutation) Touched() []string {
	var out []string
	seen := make(map[string]bool)
	add := func(id string) {
		if id != "" && !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for _, l := range m.Add {
		add(l.From)
		add(l.To)
	}
	for _, r := range m.Remove {
		add(r.From)
		add(r.To)
	}
	for _, o := range m.Objects {
		add(o.ID)
	}
	for _, l := range m.Links {
		add(l.From)
		add(l.To)
	}
	for _, p := range m.Set {
		add(p.ID)
	}
	return out
}
