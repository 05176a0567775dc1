package hin

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildToy constructs the Fig. 2-style bibliographic fragment used across
// the tests: two authors, one venue, two papers with text.
func buildToy(t *testing.T) *Network {
	t.Helper()
	b := NewBuilder()
	b.DeclareAttribute(AttrSpec{Name: "text", Kind: Categorical, VocabSize: 10})
	b.DeclareAttribute(AttrSpec{Name: "score", Kind: Numeric})
	b.AddObject("a1", "author")
	b.AddObject("a2", "author")
	b.AddObject("v1", "venue")
	b.AddObject("p1", "paper")
	b.AddObject("p2", "paper")
	b.AddLink("a1", "p1", "write", 1)
	b.AddLink("a2", "p1", "write", 1)
	b.AddLink("a2", "p2", "write", 1)
	b.AddLink("p1", "a1", "written_by", 1)
	b.AddLink("p1", "a2", "written_by", 1)
	b.AddLink("p2", "a2", "written_by", 1)
	b.AddLink("p1", "v1", "published_by", 1)
	b.AddLink("p2", "v1", "published_by", 1)
	b.AddLink("v1", "p1", "publish", 1)
	b.AddLink("v1", "p2", "publish", 1)
	b.AddTermCount("p1", "text", 0, 3)
	b.AddTermCount("p1", "text", 4, 1)
	b.AddTermCount("p2", "text", 4, 2)
	b.AddNumeric("p1", "score", 0.5)
	b.AddNumeric("p1", "score", 0.7)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestBuildBasicShape(t *testing.T) {
	net := buildToy(t)
	if net.NumObjects() != 5 {
		t.Errorf("objects = %d", net.NumObjects())
	}
	if net.NumEdges() != 10 {
		t.Errorf("edges = %d", net.NumEdges())
	}
	if net.NumRelations() != 4 {
		t.Errorf("relations = %d", net.NumRelations())
	}
	if got := net.Types(); len(got) != 3 {
		t.Errorf("types = %v", got)
	}
	if len(net.ObjectsOfType("author")) != 2 || len(net.ObjectsOfType("paper")) != 2 || len(net.ObjectsOfType("venue")) != 1 {
		t.Error("type partition wrong")
	}
	if len(net.ObjectsOfType("nonexistent")) != 0 {
		t.Error("unknown type should have no members")
	}
}

func TestIndexLookups(t *testing.T) {
	net := buildToy(t)
	v, ok := net.IndexOf("p1")
	if !ok {
		t.Fatal("p1 not found")
	}
	if net.Object(v).ID != "p1" || net.TypeOf(v) != "paper" {
		t.Error("object lookup mismatch")
	}
	if _, ok := net.IndexOf("ghost"); ok {
		t.Error("ghost should not resolve")
	}
	r, ok := net.RelationID("write")
	if !ok || net.RelationName(r) != "write" {
		t.Error("relation lookup mismatch")
	}
	if _, ok := net.RelationID("ghost_rel"); ok {
		t.Error("ghost relation should not resolve")
	}
	a, ok := net.AttrID("text")
	if !ok || net.Attr(a).Name != "text" || net.Attr(a).Kind != Categorical {
		t.Error("attribute lookup mismatch")
	}
}

func TestAdjacencyConsistency(t *testing.T) {
	net := buildToy(t)
	// Every edge appears exactly once in its source's out-list and once in
	// its target's in-list.
	outSeen := 0
	for v := 0; v < net.NumObjects(); v++ {
		for _, e := range net.OutEdges(v) {
			if e.From != v {
				t.Fatalf("out-edge of %d has From=%d", v, e.From)
			}
			outSeen++
		}
		if net.OutDegree(v) != len(net.OutEdges(v)) {
			t.Error("OutDegree mismatch")
		}
	}
	if outSeen != net.NumEdges() {
		t.Errorf("out-lists cover %d edges, want %d", outSeen, net.NumEdges())
	}
	inSeen := 0
	deg := inDegrees(net)
	for v := 0; v < net.NumObjects(); v++ {
		from, rels, weights := net.InLinks(v)
		if len(rels) != len(from) || len(weights) != len(from) {
			t.Fatalf("in-link arrays of %d disagree on length", v)
		}
		for j, u := range from {
			found := false
			for _, e := range net.OutEdges(u) {
				if e.To == v && e.Rel == rels[j] && e.Weight == weights[j] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("in-link %d of object %d (from %d rel %d) has no matching out-edge", j, v, u, rels[j])
			}
			inSeen++
		}
		if deg[v] != len(from) {
			t.Error("in-degree mismatch")
		}
	}
	if inSeen != net.NumEdges() {
		t.Errorf("in-lists cover %d edges, want %d", inSeen, net.NumEdges())
	}
}

func TestEdgesSortedDeterministically(t *testing.T) {
	net := buildToy(t)
	es := net.Edges()
	for i := 1; i < len(es); i++ {
		a, b := es[i-1], es[i]
		if a.From > b.From {
			t.Fatal("edges not sorted by From")
		}
		if a.From == b.From && a.Rel > b.Rel {
			t.Fatal("edges not sorted by Rel within From")
		}
		if a.From == b.From && a.Rel == b.Rel && a.To > b.To {
			t.Fatal("edges not sorted by To within (From, Rel)")
		}
	}
}

func TestObservations(t *testing.T) {
	net := buildToy(t)
	text, _ := net.AttrID("text")
	score, _ := net.AttrID("score")
	p1, _ := net.IndexOf("p1")
	p2, _ := net.IndexOf("p2")
	a1, _ := net.IndexOf("a1")

	tcs := net.TermCounts(text, p1)
	if len(tcs) != 2 || tcs[0].Term != 0 || tcs[0].Count != 3 || tcs[1].Term != 4 || tcs[1].Count != 1 {
		t.Errorf("p1 term counts = %v", tcs)
	}
	if !net.HasObservation(text, p1) || !net.HasObservation(text, p2) {
		t.Error("papers should have text")
	}
	if net.HasObservation(text, a1) {
		t.Error("author has no text in this toy network (incomplete attribute)")
	}
	if net.ObservationCount(text, p1) != 4 {
		t.Errorf("p1 text mass = %v", net.ObservationCount(text, p1))
	}
	xs := net.NumericObs(score, p1)
	if len(xs) != 2 || xs[0] != 0.5 {
		t.Errorf("p1 score obs = %v", xs)
	}
	if net.ObservationCount(score, p2) != 0 {
		t.Error("p2 should have no score observations")
	}
}

func TestObservationKindPanics(t *testing.T) {
	net := buildToy(t)
	text, _ := net.AttrID("text")
	score, _ := net.AttrID("score")
	p1, _ := net.IndexOf("p1")
	assertPanics(t, func() { net.TermCounts(score, p1) }, "TermCounts on numeric attr")
	assertPanics(t, func() { net.NumericObs(text, p1) }, "NumericObs on categorical attr")
}

func assertPanics(t *testing.T, f func(), name string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestTermCountAccumulates(t *testing.T) {
	b := NewBuilder()
	b.DeclareAttribute(AttrSpec{Name: "text", Kind: Categorical, VocabSize: 5})
	b.AddObject("o", "thing")
	b.AddTermCount("o", "text", 2, 1)
	b.AddTermCount("o", "text", 2, 2.5)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := net.AttrID("text")
	v, _ := net.IndexOf("o")
	tcs := net.TermCounts(a, v)
	if len(tcs) != 1 || tcs[0].Count != 3.5 {
		t.Errorf("accumulated counts = %v", tcs)
	}
}

func TestBuilderValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		prep func(b *Builder)
	}{
		{"empty object id", func(b *Builder) { b.AddObject("", "t") }},
		{"empty type", func(b *Builder) { b.AddObject("x", "") }},
		{"retyped object", func(b *Builder) { b.AddObject("x", "a"); b.AddObject("x", "b") }},
		{"unknown link endpoint", func(b *Builder) { b.AddObject("x", "a"); b.AddLink("x", "ghost", "r", 1) }},
		{"zero weight", func(b *Builder) { b.AddObject("x", "a"); b.AddObject("y", "a"); b.AddLink("x", "y", "r", 0) }},
		{"negative weight", func(b *Builder) { b.AddObject("x", "a"); b.AddObject("y", "a"); b.AddLink("x", "y", "r", -1) }},
		{"NaN weight", func(b *Builder) { b.AddObject("x", "a"); b.AddObject("y", "a"); b.AddLink("x", "y", "r", math.NaN()) }},
		{"Inf weight", func(b *Builder) { b.AddObject("x", "a"); b.AddObject("y", "a"); b.AddLink("x", "y", "r", math.Inf(1)) }},
		{"empty relation", func(b *Builder) { b.AddObject("x", "a"); b.AddObject("y", "a"); b.AddLink("x", "y", "", 1) }},
		{"categorical without vocab", func(b *Builder) { b.AddObject("x", "a"); b.DeclareAttribute(AttrSpec{Name: "t", Kind: Categorical}) }},
		{"unnamed attribute", func(b *Builder) { b.AddObject("x", "a"); b.DeclareAttribute(AttrSpec{Kind: Numeric}) }},
		{"redeclared attribute", func(b *Builder) {
			b.AddObject("x", "a")
			b.DeclareAttribute(AttrSpec{Name: "t", Kind: Numeric})
			b.DeclareAttribute(AttrSpec{Name: "t", Kind: Categorical, VocabSize: 3})
		}},
		{"obs on unknown object", func(b *Builder) {
			b.AddObject("x", "a")
			b.DeclareAttribute(AttrSpec{Name: "t", Kind: Numeric})
			b.AddNumeric("ghost", "t", 1)
		}},
		{"obs on undeclared attr", func(b *Builder) { b.AddObject("x", "a"); b.AddNumeric("x", "ghost", 1) }},
		{"term out of vocab", func(b *Builder) {
			b.AddObject("x", "a")
			b.DeclareAttribute(AttrSpec{Name: "t", Kind: Categorical, VocabSize: 3})
			b.AddTermCount("x", "t", 3, 1)
		}},
		{"negative term", func(b *Builder) {
			b.AddObject("x", "a")
			b.DeclareAttribute(AttrSpec{Name: "t", Kind: Categorical, VocabSize: 3})
			b.AddTermCount("x", "t", -1, 1)
		}},
		{"non-positive count", func(b *Builder) {
			b.AddObject("x", "a")
			b.DeclareAttribute(AttrSpec{Name: "t", Kind: Categorical, VocabSize: 3})
			b.AddTermCount("x", "t", 0, 0)
		}},
		{"numeric obs on categorical attr", func(b *Builder) {
			b.AddObject("x", "a")
			b.DeclareAttribute(AttrSpec{Name: "t", Kind: Categorical, VocabSize: 3})
			b.AddNumeric("x", "t", 1)
		}},
		{"term obs on numeric attr", func(b *Builder) {
			b.AddObject("x", "a")
			b.DeclareAttribute(AttrSpec{Name: "t", Kind: Numeric})
			b.AddTermCount("x", "t", 0, 1)
		}},
		{"NaN numeric obs", func(b *Builder) {
			b.AddObject("x", "a")
			b.DeclareAttribute(AttrSpec{Name: "t", Kind: Numeric})
			b.AddNumeric("x", "t", math.NaN())
		}},
	}
	for _, c := range cases {
		b := NewBuilder()
		c.prep(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: Build should have failed", c.name)
		}
	}
}

func TestBuildEmptyNetwork(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Error("empty network should be rejected")
	}
}

func TestAddObjectIdempotent(t *testing.T) {
	b := NewBuilder()
	v1 := b.AddObject("x", "a")
	v2 := b.AddObject("x", "a")
	if v1 != v2 {
		t.Error("re-adding same object should return same index")
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if net.NumObjects() != 1 {
		t.Error("duplicate AddObject created extra object")
	}
}

func TestStats(t *testing.T) {
	net := buildToy(t)
	s := net.Stats()
	if s.Objects != 5 || s.Edges != 10 || s.Relations != 4 || s.Attributes != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.TypeCounts["author"] != 2 || s.RelCounts["write"] != 3 {
		t.Errorf("stats detail = %+v", s)
	}
	if s.ObservedObjs["text"] != 2 || s.ObservedObjs["score"] != 1 {
		t.Errorf("observation counts = %+v", s.ObservedObjs)
	}
	if s.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	net := buildToy(t)
	data, err := net.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSONLimited(data, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	assertNetworksEqual(t, net, back)
}

func TestJSONFileRoundTrip(t *testing.T) {
	net := buildToy(t)
	path := t.TempDir() + "/net.json"
	if err := net.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFileLimited(path, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	assertNetworksEqual(t, net, back)
}

func TestFromJSONErrors(t *testing.T) {
	if _, err := FromJSONLimited([]byte("{not json"), Limits{}); err == nil {
		t.Error("malformed JSON should error")
	}
	if _, err := FromJSONLimited([]byte(`{"attributes":[{"name":"x","kind":"mystery"}],"objects":[{"id":"a","type":"t"}]}`), Limits{}); err == nil {
		t.Error("unknown attribute kind should error")
	}
	if _, err := FromJSONLimited([]byte(`{"objects":[]}`), Limits{}); err == nil {
		t.Error("empty object list should error")
	}
}

func assertNetworksEqual(t *testing.T, a, b *Network) {
	t.Helper()
	if a.NumObjects() != b.NumObjects() || a.NumEdges() != b.NumEdges() ||
		a.NumRelations() != b.NumRelations() || a.NumAttrs() != b.NumAttrs() {
		t.Fatalf("shape mismatch: %v vs %v", a.Stats(), b.Stats())
	}
	for v := 0; v < a.NumObjects(); v++ {
		oa := a.Object(v)
		vb, ok := b.IndexOf(oa.ID)
		if !ok {
			t.Fatalf("object %q missing after round trip", oa.ID)
		}
		if b.Object(vb).Type != oa.Type {
			t.Fatalf("object %q type changed", oa.ID)
		}
	}
	// Compare edges as multisets of (fromID, toID, rel, weight).
	key := func(n *Network, e Edge) string {
		return n.Object(e.From).ID + "|" + n.Object(e.To).ID + "|" + n.RelationName(e.Rel)
	}
	edgeCount := map[string]float64{}
	for _, e := range a.Edges() {
		edgeCount[key(a, e)] += e.Weight
	}
	for _, e := range b.Edges() {
		edgeCount[key(b, e)] -= e.Weight
	}
	for k, v := range edgeCount {
		if math.Abs(v) > 1e-12 {
			t.Fatalf("edge %s weight mismatch %v", k, v)
		}
	}
	// Compare observations.
	for ai := 0; ai < a.NumAttrs(); ai++ {
		spec := a.Attr(ai)
		bi, ok := b.AttrID(spec.Name)
		if !ok {
			t.Fatalf("attribute %q lost", spec.Name)
		}
		for v := 0; v < a.NumObjects(); v++ {
			vb, _ := b.IndexOf(a.Object(v).ID)
			switch spec.Kind {
			case Categorical:
				ta := a.TermCounts(ai, v)
				tb := b.TermCounts(bi, vb)
				if len(ta) != len(tb) {
					t.Fatalf("term counts length mismatch on %q", a.Object(v).ID)
				}
				for i := range ta {
					if ta[i] != tb[i] {
						t.Fatalf("term counts mismatch on %q: %v vs %v", a.Object(v).ID, ta[i], tb[i])
					}
				}
			case Numeric:
				xa := a.NumericObs(ai, v)
				xb := b.NumericObs(bi, vb)
				if len(xa) != len(xb) {
					t.Fatalf("numeric obs length mismatch on %q", a.Object(v).ID)
				}
				for i := range xa {
					if xa[i] != xb[i] {
						t.Fatalf("numeric obs mismatch on %q", a.Object(v).ID)
					}
				}
			}
		}
	}
}

// TestRandomNetworkInvariantsQuick property-tests Build on random networks:
// the per-object out-link runs must partition the edge set regardless of
// insertion order.
func TestRandomNetworkInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		nObj := 2 + rng.Intn(40)
		types := []string{"t0", "t1", "t2"}
		ids := make([]string, nObj)
		for i := 0; i < nObj; i++ {
			ids[i] = "o" + string(rune('A'+i%26)) + string(rune('0'+i/26))
			b.AddObject(ids[i], types[rng.Intn(len(types))])
		}
		rels := []string{"r0", "r1"}
		nEdges := rng.Intn(120)
		for i := 0; i < nEdges; i++ {
			b.AddLink(ids[rng.Intn(nObj)], ids[rng.Intn(nObj)], rels[rng.Intn(2)], 0.1+rng.Float64())
		}
		net, err := b.Build()
		if err != nil {
			return false
		}
		if net.NumEdges() != nEdges {
			return false
		}
		var covered int
		for v := 0; v < net.NumObjects(); v++ {
			covered += net.OutDegree(v)
			if net.OutDegree(v) < 0 {
				return false
			}
		}
		if covered != nEdges {
			return false
		}
		covered = 0
		for v := 0; v < net.NumObjects(); v++ {
			from, _, _ := net.InLinks(v)
			covered += len(from)
		}
		return covered == nEdges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
