package hin

// CloneInto replays an existing network's full definition — attributes,
// relations, objects, edges and observations — into a builder. It is the
// substrate for immutable view generations: a mutation never edits a live
// Network; instead the current view is cloned into a fresh Builder with the
// removed material filtered out by the keep callbacks, the new material is
// added on top, and Build produces the next generation. Because Build
// canonicalizes (edges sorted by (From, Rel, To), observations frozen into
// sorted sparse slices), the rebuilt network is bit-for-bit the network a
// from-scratch Builder with the same content would produce — which is what
// keeps warm-start refits of a mutated network deterministic.
//
// keepEdge decides which edges carry over (nil keeps all). keepObs decides
// which per-object attribute observations carry over, called once per
// (object, attribute) pair that has an observation (nil keeps all).
// Relations are pre-registered in the source network's dense order, so a
// clone that drops every edge of a relation still knows the relation.
func CloneInto(b *Builder, n *Network, keepEdge func(Edge) bool, keepObs func(objID, attr string) bool) {
	attrIndex := make([]int, len(n.attrs)) // n's attribute → b's
	for a, spec := range n.attrs {
		attrIndex[a] = b.DeclareAttribute(spec)
	}
	for _, name := range n.relations {
		b.Relation(name)
	}
	if len(b.objects) == 0 {
		b.objects = make([]Object, 0, len(n.objects))
		b.idIndex = make(map[string]int, len(n.objects))
		b.edges = make([]Edge, 0, len(n.edges))
	}
	for _, o := range n.objects {
		b.AddObject(o.ID, o.Type)
	}
	for _, e := range n.edges {
		if keepEdge != nil && !keepEdge(e) {
			continue
		}
		b.AddLinkByIndex(e.From, e.To, n.relations[e.Rel], e.Weight)
	}
	// The Builder may keep n's observation lists rather than copy them:
	// they are sorted, merged and capped at their length, so neither Build
	// nor a later append writes to them.
	for a, spec := range n.attrs {
		ab := attrIndex[a]
		if ab < 0 {
			continue // DeclareAttribute has recorded the error
		}
		switch spec.Kind {
		case Categorical:
			for v, tcs := range n.catObs[a] {
				if len(tcs) == 0 {
					continue
				}
				if keepObs != nil && !keepObs(n.objects[v].ID, spec.Name) {
					continue
				}
				b.addTermCounts(v, ab, tcs)
			}
		case Numeric:
			for v, xs := range n.numObs[a] {
				if len(xs) == 0 {
					continue
				}
				if keepObs != nil && !keepObs(n.objects[v].ID, spec.Name) {
					continue
				}
				b.addNumerics(v, ab, xs)
			}
		}
	}
}

// CheckNetwork verifies a built network against the limits — the post-apply
// half of the mutation trust boundary. FromJSONLimited bounds what a decoded
// document may allocate before it is built; CheckNetwork bounds what a
// network may grow into through incremental mutations, with the same
// dimensions and the same *LimitError so servers keep answering 413.
func (l Limits) CheckNetwork(n *Network) error {
	if l.MaxObjects > 0 && n.NumObjects() > l.MaxObjects {
		return &LimitError{Dimension: "objects", Got: n.NumObjects(), Max: l.MaxObjects}
	}
	if l.MaxLinks > 0 && n.NumEdges() > l.MaxLinks {
		return &LimitError{Dimension: "links", Got: n.NumEdges(), Max: l.MaxLinks}
	}
	if l.MaxAttributes > 0 && n.NumAttrs() > l.MaxAttributes {
		return &LimitError{Dimension: "attributes", Got: n.NumAttrs(), Max: l.MaxAttributes}
	}
	if l.MaxVocab > 0 {
		for _, spec := range n.attrs {
			if spec.VocabSize > l.MaxVocab {
				return &LimitError{Dimension: "vocabulary", Got: spec.VocabSize, Max: l.MaxVocab}
			}
		}
	}
	if l.MaxObservations > 0 {
		var obs int
		for a, spec := range n.attrs {
			switch spec.Kind {
			case Categorical:
				for _, tcs := range n.catObs[a] {
					obs += len(tcs)
				}
			case Numeric:
				for _, xs := range n.numObs[a] {
					obs += len(xs)
				}
			}
		}
		if obs > l.MaxObservations {
			return &LimitError{Dimension: "observations", Got: obs, Max: l.MaxObservations}
		}
	}
	return nil
}
