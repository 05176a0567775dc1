package hin

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// checkCSRInvariants verifies the link storage every fit walks against the
// canonical edge list:
//
//   - OutEdges(v) is object v's run of Edges(): the runs, walked in object
//     order, reproduce Edges() exactly — same order, same duplicates, same
//     weights — which is the summation order the E-step and the strength
//     statistics rely on;
//   - each run is sorted by (Rel, To), agrees with OutDegree, and holds
//     in-range relation ids, in-range targets and positive finite weights;
//   - the merged in-link view is ordered by (From, Rel) within each target
//     and holds exactly the edges that end there.
//
// Build order of duplicate links is asserted by TestCSRDuplicateLinks,
// which knows the order the links were added in. The fuzzer calls this on
// every decodable input.
func checkCSRInvariants(t testing.TB, net *Network) {
	t.Helper()
	nObj := net.NumObjects()
	nRel := net.NumRelations()
	edges := net.Edges()
	i := 0
	for v := 0; v < nObj; v++ {
		out := net.OutEdges(v)
		if len(out) != net.OutDegree(v) {
			t.Fatalf("OutEdges(%d) has %d links, OutDegree %d", v, len(out), net.OutDegree(v))
		}
		for j, e := range out {
			if i >= len(edges) {
				t.Fatalf("out-link runs yield more links than edges")
			}
			if e != edges[i] {
				t.Fatalf("OutEdges(%d)[%d] = %+v, edge %d = %+v", v, j, e, i, edges[i])
			}
			if e.From != v {
				t.Fatalf("OutEdges(%d)[%d] starts at object %d", v, j, e.From)
			}
			if e.Rel < 0 || e.Rel >= nRel || e.To < 0 || e.To >= nObj {
				t.Fatalf("OutEdges(%d)[%d] = %+v out of range (%d relations, %d objects)", v, j, e, nRel, nObj)
			}
			if !(e.Weight > 0) || math.IsInf(e.Weight, 1) {
				t.Fatalf("OutEdges(%d)[%d] has weight %v", v, j, e.Weight)
			}
			if j > 0 {
				p := out[j-1]
				if e.Rel < p.Rel || (e.Rel == p.Rel && e.To < p.To) {
					t.Fatalf("OutEdges(%d) not in (Rel, To) order at %d: %+v after %+v", v, j, e, p)
				}
			}
			i++
		}
	}
	if i != len(edges) {
		t.Fatalf("out-link runs yield %d links for %d edges", i, len(edges))
	}

	// Merged in-link view: (From, Rel)-ordered per target, length-consistent.
	deg := inDegrees(net)
	for v := 0; v < nObj; v++ {
		from, rels, wts := net.InLinks(v)
		if len(from) != deg[v] || len(rels) != len(from) || len(wts) != len(from) {
			t.Fatalf("merged in-links of %d: lengths %d/%d/%d for in-degree %d", v, len(from), len(rels), len(wts), deg[v])
		}
		for j := 1; j < len(from); j++ {
			if from[j] < from[j-1] || (from[j] == from[j-1] && rels[j] < rels[j-1]) {
				t.Fatalf("merged in-links of %d not in (From, Rel) order at %d", v, j)
			}
		}
	}
}

// inDegrees counts the edges that end at each object, without the in-link
// view.
func inDegrees(net *Network) []int {
	d := make([]int, net.NumObjects())
	for _, e := range net.Edges() {
		d[e.To]++
	}
	return d
}

func TestCSRToyNetwork(t *testing.T) {
	checkCSRInvariants(t, buildToy(t))
}

// TestCSREmptyRelation: a relation interned without any links keeps its
// dense id and appears in no object's out-links, and relations emptied by
// FilterEdges keep their dense ids.
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
	for v := 0; v < net.NumObjects(); v++ {
		for _, e := range net.OutEdges(v) {
			if e.Rel == lonely {
				t.Fatalf("empty relation stores link %+v", e)
			}
		}
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

// TestCSRSelfLinks: a self-link appears in the object's own out-links.
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
	out := net.OutEdges(va)
	if len(out) != 2 || out[0] != (Edge{From: va, To: va, Rel: r, Weight: 2}) {
		t.Fatalf("self-link missing from out-links: %+v", out)
	}
}

// TestCSRDuplicateLinks: duplicate (src, dst, relation) links stay separate
// adjacent entries, in the order they were added, whose weights accumulate
// when walked — coalescing or reordering them would change the EM
// summation tree. The second network is large enough that an unstable
// sort would reorder its duplicates.
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
	other, _ := net.RelationID("other")
	want := []Edge{
		{From: va, To: vc, Rel: r, Weight: 1},
		{From: va, To: vc, Rel: r, Weight: 2.5},
		{From: va, To: vc, Rel: other, Weight: 4},
	}
	if out := net.OutEdges(va); !slices.Equal(out, want) {
		t.Fatalf("duplicate links not kept as separate entries in build order: %+v", out)
	}
	if out := net.OutEdges(va); out[0].Weight+out[1].Weight != 3.5 {
		t.Fatalf("duplicate weights accumulate to %v, want 3.5", out[0].Weight+out[1].Weight)
	}

	// Many objects, each with three copies of a few links added in
	// descending object order; the weight records the build order.
	const nObj, copies = 50, 3
	b = NewBuilder()
	for v := 0; v < nObj; v++ {
		b.AddObject(fmt.Sprint("o", v), "t")
	}
	w := 1.0
	for c := 0; c < copies; c++ {
		for v := nObj - 1; v >= 0; v-- {
			b.AddLink(fmt.Sprint("o", v), fmt.Sprint("o", (v*7)%nObj), "r", w)
			b.AddLink(fmt.Sprint("o", v), fmt.Sprint("o", (v+1)%nObj), "r", w+0.5)
			w++
		}
	}
	net, err = b.Build()
	if err != nil {
		t.Fatal(err)
	}
	checkCSRInvariants(t, net)
	for v := 0; v < nObj; v++ {
		out := net.OutEdges(v)
		for j := 1; j < len(out); j++ {
			if out[j].To == out[j-1].To && out[j].Rel == out[j-1].Rel && out[j].Weight < out[j-1].Weight {
				t.Fatalf("OutEdges(%d) reorders duplicate links: %+v", v, out)
			}
		}
	}
}

// TestPrepareCSRConcurrent: many goroutines racing PrepareCSR and the
// accessors must observe one consistent build (run with -race).
func TestPrepareCSRConcurrent(t *testing.T) {
	net := buildToy(t)
	views := make([][]int, 8)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			net.PrepareCSR()
			_, views[i], _, _ = net.InLinkArrays()
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
