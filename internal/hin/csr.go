package hin

// PrepareCSR builds the merged in-link view if it does not exist yet: entry
// j of object v (j in inStart[v]:inStart[v+1]) stores the source object
// inFrom[j], relation inRel[j] and weight inWeight[j] of one incoming link,
// in global edge order — i.e. sorted by (From, Rel) within each target.
// Only symmetric propagation and the baselines read it, so a network that
// serves neither never holds it. Out-links need no second view: each
// object's run of the sorted edge list (OutEdges) is already its
// out-adjacency row.
//
// PrepareCSR is idempotent and safe for concurrent use; InLinks and
// InLinkArrays call it implicitly.
func (n *Network) PrepareCSR() {
	n.csrOnce.Do(n.buildCSR)
}

// buildCSR counts in-links per target into offsets, then fills the view by
// scanning the edges in their canonical (From, Rel, To) order, so each
// target's entries inherit the global edge order and duplicates keep their
// relative order.
func (n *Network) buildCSR() {
	nObj := len(n.objects)
	n.inStart = make([]int, nObj+1)
	for _, e := range n.edges {
		n.inStart[e.To+1]++
	}
	for v := 0; v < nObj; v++ {
		n.inStart[v+1] += n.inStart[v]
	}
	n.inFrom = make([]int, len(n.edges))
	n.inRel = make([]int, len(n.edges))
	n.inWeight = make([]float64, len(n.edges))
	next := append([]int(nil), n.inStart[:nObj]...)
	for _, e := range n.edges {
		m := next[e.To]
		n.inFrom[m] = e.From
		n.inRel[m] = e.Rel
		n.inWeight[m] = e.Weight
		next[e.To]++
	}
}

// InLinks returns the incoming links of object v as parallel subslices
// (source object, relation id, weight), ordered by (source, relation) — the
// global edge order. Shared; callers must not mutate.
func (n *Network) InLinks(v int) (from, rel []int, weight []float64) {
	n.PrepareCSR()
	lo, hi := n.inStart[v], n.inStart[v+1]
	return n.inFrom[lo:hi], n.inRel[lo:hi], n.inWeight[lo:hi]
}

// InLinkArrays exposes the full merged in-link view for hot loops: start has
// NumObjects+1 offsets, and from/rel/weight describe each incoming link in
// global edge order. Shared; callers must not mutate.
func (n *Network) InLinkArrays() (start, from, rel []int, weight []float64) {
	n.PrepareCSR()
	return n.inStart, n.inFrom, n.inRel, n.inWeight
}
