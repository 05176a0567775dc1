package hin

import (
	"sort"
	"sync"
	"testing"
)

// checkCSRInvariants verifies the structural soundness of a network's CSR
// link views against its canonical edge list:
//
//   - every relation has an out view with |V|+1 non-decreasing row
//     offsets covering exactly that relation's links;
//   - walking the out views object-major, relation-major reproduces
//     Edges() exactly — same order, same duplicates, same weights — which
//     is the determinism contract the EM loop relies on;
//   - each relation's out view holds the same multiset of links as that
//     relation's slice of the edge list;
//   - the merged in-link view is ordered by (From, Rel) within each target
//     and agrees with InDegree.
//
// The fuzzer calls it on every decodable input.
func checkCSRInvariants(t testing.TB, net *Network) {
	t.Helper()
	nObj := net.NumObjects()
	nRel := net.NumRelations()
	outs := net.RelationCSRs()
	if len(outs) != nRel {
		t.Fatalf("CSR views: %d out for %d relations", len(outs), nRel)
	}

	checkShape := func(m *CSR, name string) {
		if m.NumRows() != nObj {
			t.Fatalf("%s has %d rows, want %d", name, m.NumRows(), nObj)
		}
		if m.Start[0] != 0 || m.Start[nObj] != m.NNZ() {
			t.Fatalf("%s offsets don't cover entries: Start[0]=%d Start[n]=%d nnz=%d", name, m.Start[0], m.Start[nObj], m.NNZ())
		}
		if len(m.Weight) != m.NNZ() {
			t.Fatalf("%s has %d weights for %d entries", name, len(m.Weight), m.NNZ())
		}
		for v := 0; v < nObj; v++ {
			if m.Start[v] > m.Start[v+1] {
				t.Fatalf("%s offsets decrease at row %d", name, v)
			}
			cols, _ := m.Row(v)
			if len(cols) != m.RowNNZ(v) {
				t.Fatalf("%s Row/RowNNZ disagree at %d", name, v)
			}
			for _, c := range cols {
				if c < 0 || c >= nObj {
					t.Fatalf("%s row %d has column %d outside [0,%d)", name, v, c, nObj)
				}
			}
		}
	}

	totalOut := 0
	for r := 0; r < nRel; r++ {
		checkShape(&outs[r], "out["+net.RelationName(r)+"]")
		totalOut += outs[r].NNZ()
	}
	if totalOut != net.NumEdges() {
		t.Fatalf("CSR views store %d out links for %d edges", totalOut, net.NumEdges())
	}

	// Walking out views object-major, relation-major must reproduce the
	// canonical edge list exactly (order, duplicates, weights).
	i := 0
	edges := net.Edges()
	for v := 0; v < nObj; v++ {
		for r := 0; r < nRel; r++ {
			cols, wts := outs[r].Row(v)
			for j := range cols {
				if i >= len(edges) {
					t.Fatalf("out views yield more links than edges")
				}
				e := edges[i]
				if e.From != v || e.Rel != r || e.To != cols[j] || e.Weight != wts[j] {
					t.Fatalf("out-view walk diverges from edge %d: got (%d -[%d]-> %d, w=%v), want (%d -[%d]-> %d, w=%v)",
						i, v, r, cols[j], wts[j], e.From, e.Rel, e.To, e.Weight)
				}
				i++
			}
		}
	}
	if i != len(edges) {
		t.Fatalf("out views yield %d links for %d edges", i, len(edges))
	}

	// Each out view holds its relation's (From, To, Weight) multiset of the
	// edge list.
	type link struct {
		from, to int
		w        float64
	}
	sortLinks := func(ls []link) {
		sort.Slice(ls, func(i, j int) bool {
			if ls[i].from != ls[j].from {
				return ls[i].from < ls[j].from
			}
			if ls[i].to != ls[j].to {
				return ls[i].to < ls[j].to
			}
			return ls[i].w < ls[j].w
		})
	}
	fromEdges := make([][]link, nRel)
	for _, e := range edges {
		fromEdges[e.Rel] = append(fromEdges[e.Rel], link{e.From, e.To, e.Weight})
	}
	for r := 0; r < nRel; r++ {
		var fromOut []link
		for v := 0; v < nObj; v++ {
			cols, wts := outs[r].Row(v)
			for j := range cols {
				fromOut = append(fromOut, link{v, cols[j], wts[j]})
			}
		}
		sortLinks(fromOut)
		sortLinks(fromEdges[r])
		if len(fromOut) != len(fromEdges[r]) {
			t.Fatalf("relation %d: %d out links, %d edges", r, len(fromOut), len(fromEdges[r]))
		}
		for j := range fromOut {
			if fromOut[j] != fromEdges[r][j] {
				t.Fatalf("relation %d: out link %d = %+v, edge %+v", r, j, fromOut[j], fromEdges[r][j])
			}
		}
	}

	// Merged in-link view: (From, Rel)-ordered per target, length-consistent.
	for v := 0; v < nObj; v++ {
		from, rels, wts := net.InLinks(v)
		if len(from) != net.InDegree(v) || len(rels) != len(from) || len(wts) != len(from) {
			t.Fatalf("merged in-links of %d: lengths %d/%d/%d for InDegree %d", v, len(from), len(rels), len(wts), net.InDegree(v))
		}
		for j := 1; j < len(from); j++ {
			if from[j] < from[j-1] || (from[j] == from[j-1] && rels[j] < rels[j-1]) {
				t.Fatalf("merged in-links of %d not in (From, Rel) order at %d", v, j)
			}
		}
	}
}

func TestCSRToyNetwork(t *testing.T) {
	checkCSRInvariants(t, buildToy(t))
}

// TestCSREmptyRelation: a relation interned without any links still gets a
// (all-empty-rows) CSR, and relations emptied by FilterEdges keep
// their dense ids with zero entries.
func TestCSREmptyRelation(t *testing.T) {
	b := NewBuilder()
	b.AddObject("a", "t")
	b.AddObject("c", "t")
	b.Relation("lonely")
	b.AddLink("a", "c", "used", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	checkCSRInvariants(t, net)
	lonely, ok := net.RelationID("lonely")
	if !ok {
		t.Fatal("interned relation lost")
	}
	if nnz := net.RelationCSR(lonely).NNZ(); nnz != 0 {
		t.Fatalf("empty relation stores %d links", nnz)
	}

	filtered, err := FilterEdges(net, func(Edge) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	checkCSRInvariants(t, filtered)
	if filtered.NumRelations() != net.NumRelations() {
		t.Fatal("FilterEdges dropped relation ids")
	}
}

// TestCSRSelfLinks: a self-link appears in the object's own out-view row.
func TestCSRSelfLinks(t *testing.T) {
	b := NewBuilder()
	b.AddObject("a", "t")
	b.AddObject("c", "t")
	b.AddLink("a", "a", "self", 2)
	b.AddLink("a", "c", "self", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	checkCSRInvariants(t, net)
	va, _ := net.IndexOf("a")
	r, _ := net.RelationID("self")
	cols, wts := net.RelationCSR(r).Row(va)
	if len(cols) != 2 || cols[0] != va || wts[0] != 2 {
		t.Fatalf("self-link missing from out row: cols=%v wts=%v", cols, wts)
	}
}

// TestCSRDuplicateLinks: duplicate (src, dst, relation) links stay separate
// adjacent entries whose weights accumulate when walked — coalescing them
// would change the EM summation tree and break bitwise determinism against
// the edge-list order.
func TestCSRDuplicateLinks(t *testing.T) {
	b := NewBuilder()
	b.AddObject("a", "t")
	b.AddObject("c", "t")
	b.AddLink("a", "c", "r", 1)
	b.AddLink("a", "c", "r", 2.5)
	b.AddLink("a", "c", "other", 4)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	checkCSRInvariants(t, net)
	va, _ := net.IndexOf("a")
	vc, _ := net.IndexOf("c")
	r, _ := net.RelationID("r")
	cols, wts := net.RelationCSR(r).Row(va)
	if len(cols) != 2 || cols[0] != vc || cols[1] != vc {
		t.Fatalf("duplicate links not kept as separate entries: cols=%v", cols)
	}
	if total := wts[0] + wts[1]; total != 3.5 {
		t.Fatalf("duplicate weights accumulate to %v, want 3.5", total)
	}
}

// TestPrepareCSRConcurrent: many goroutines racing PrepareCSR and the
// accessors must observe one consistent build (run with -race).
func TestPrepareCSRConcurrent(t *testing.T) {
	net := buildToy(t)
	views := make([][]CSR, 8)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			net.PrepareCSR()
			views[i] = net.RelationCSRs()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(views); i++ {
		if &views[i][0] != &views[0][0] {
			t.Fatal("concurrent PrepareCSR produced distinct builds")
		}
	}
	checkCSRInvariants(t, net)
}
