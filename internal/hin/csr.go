package hin

// CSR is an immutable compressed-sparse-row adjacency matrix over the links
// of a single relation. Rows are dense object indices; row v's entries live
// in Col[Start[v]:Start[v+1]] and Weight[Start[v]:Start[v+1]]. In the
// out-link view a column is the link target (To).
//
// Entries within a row are ordered by ascending column index, with duplicate
// (row, column) links kept as adjacent separate entries in their original
// build order — never coalesced — so walking a CSR row reproduces the exact
// floating-point summation order of walking the sorted edge list. That
// ordering is part of the determinism contract (see docs/ARCHITECTURE.md):
// a fit must be bitwise reproducible regardless of which adjacency view the
// EM loop consumes.
type CSR struct {
	// Start has NumRows+1 offsets into Col/Weight.
	Start []int
	// Col holds the column index of each stored link.
	Col []int
	// Weight holds the link weight of each stored link, aligned with Col.
	Weight []float64
}

// NumRows returns the number of rows (always the network's object count).
func (m *CSR) NumRows() int { return len(m.Start) - 1 }

// NNZ returns the number of stored links.
func (m *CSR) NNZ() int { return len(m.Col) }

// Row returns row v's column indices and weights as shared subslices;
// callers must not mutate them.
func (m *CSR) Row(v int) (cols []int, weights []float64) {
	lo, hi := m.Start[v], m.Start[v+1]
	return m.Col[lo:hi], m.Weight[lo:hi]
}

// RowNNZ returns the number of stored links in row v.
func (m *CSR) RowNNZ(v int) int { return m.Start[v+1] - m.Start[v] }

// csrViews is the lazily-built sparse link storage the EM hot path walks:
// one CSR per relation (rows = From) and a merged in-link view that keeps
// the global edge order. Built once per Network on first use and immutable
// afterwards.
type csrViews struct {
	out []CSR // per relation, rows = From, columns = To

	// Merged in-link view: entry j of object v (j in inStart[v]:inStart[v+1],
	// inStart owned by Network) stores the source object inFrom[j], relation
	// inRel[j] and weight inWeight[j] of one incoming link, in global edge
	// order — i.e. sorted by (From, Rel) within each target. Symmetric
	// propagation walks this view so its summation order matches the
	// pre-CSR edge-index iteration bit for bit.
	inFrom   []int
	inRel    []int
	inWeight []float64
}

// PrepareCSR builds the per-relation CSR link views if they do not exist
// yet. It is idempotent and safe for concurrent use; every CSR accessor
// calls it implicitly. Fit setup and the genclusd upload path invoke it
// eagerly so the build cost is paid once, off the EM iteration path.
func (n *Network) PrepareCSR() {
	n.csrOnce.Do(n.buildCSR)
}

func (n *Network) buildCSR() {
	nObj := len(n.objects)
	nRel := len(n.relations)
	v := &csrViews{
		out: make([]CSR, nRel),
	}

	// Per-relation link counts by row.
	for r := 0; r < nRel; r++ {
		v.out[r].Start = make([]int, nObj+1)
	}
	for _, e := range n.edges {
		v.out[e.Rel].Start[e.From+1]++
	}
	for r := 0; r < nRel; r++ {
		outS := v.out[r].Start
		for i := 0; i < nObj; i++ {
			outS[i+1] += outS[i]
		}
		v.out[r].Col = make([]int, outS[nObj])
		v.out[r].Weight = make([]float64, outS[nObj])
	}

	// Fill by scanning the edges in their canonical (From, Rel, To) order:
	// the out view inherits ascending To within each row, the merged
	// in-link view the global edge order, and duplicates keep their
	// original relative order. Next-free-slot cursors start as a copy of
	// each Start array.
	v.inFrom = make([]int, len(n.edges))
	v.inRel = make([]int, len(n.edges))
	v.inWeight = make([]float64, len(n.edges))
	mergedCur := append([]int(nil), n.inStart...)
	outNext := make([][]int, nRel)
	for r := 0; r < nRel; r++ {
		outNext[r] = append([]int(nil), v.out[r].Start...)
	}
	for _, e := range n.edges {
		o := &v.out[e.Rel]
		p := outNext[e.Rel][e.From]
		o.Col[p] = e.To
		o.Weight[p] = e.Weight
		outNext[e.Rel][e.From]++

		m := mergedCur[e.To]
		v.inFrom[m] = e.From
		v.inRel[m] = e.Rel
		v.inWeight[m] = e.Weight
		mergedCur[e.To]++
	}
	n.csr = v
}

// RelationCSR returns the out-link CSR of relation r (rows = From, columns =
// To). The returned matrix is shared and immutable.
func (n *Network) RelationCSR(r int) *CSR {
	n.PrepareCSR()
	return &n.csr.out[r]
}

// RelationCSRs returns every relation's out-link CSR indexed by dense
// relation id. The slice and matrices are shared; callers must not mutate
// them.
func (n *Network) RelationCSRs() []CSR {
	n.PrepareCSR()
	return n.csr.out
}

// InLinks returns the incoming links of object v as parallel subslices
// (source object, relation id, weight), ordered by (source, relation) — the
// global edge order. Shared; callers must not mutate.
func (n *Network) InLinks(v int) (from, rel []int, weight []float64) {
	n.PrepareCSR()
	lo, hi := n.inStart[v], n.inStart[v+1]
	return n.csr.inFrom[lo:hi], n.csr.inRel[lo:hi], n.csr.inWeight[lo:hi]
}

// InLinkArrays exposes the full merged in-link view for hot loops: start has
// NumObjects+1 offsets, and from/rel/weight describe each incoming link in
// global edge order. Shared; callers must not mutate.
func (n *Network) InLinkArrays() (start, from, rel []int, weight []float64) {
	n.PrepareCSR()
	return n.inStart, n.csr.inFrom, n.csr.inRel, n.csr.inWeight
}
