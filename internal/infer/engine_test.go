package infer

import (
	"fmt"
	"math"
	"testing"

	"genclus/internal/core"
	"genclus/internal/hin"
)

// testNet builds a deterministic two-topic document network: categorical
// text over disjoint vocabulary blocks, a cites-ring plus a sparser
// second "extends" relation inside each topic, and a numeric "score"
// attribute observed on a subset of the docs — so the fold-in path
// exercises multi-relation links, categorical and Gaussian terms, and
// incompleteness at once. The relations are declared in lexicographic
// order (cites before extends), which is the ordering condition of the
// bitwise reproduction contract (see core.Scorer).
func testNet(t testing.TB, perTopic int, withNumeric bool) *hin.Network {
	t.Helper()
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 40})
	if withNumeric {
		b.DeclareAttribute(hin.AttrSpec{Name: "score", Kind: hin.Numeric})
	}
	for topic := 0; topic < 2; topic++ {
		ids := make([]string, perTopic)
		for i := range ids {
			ids[i] = fmt.Sprintf("d%d_%03d", topic, i)
			b.AddObject(ids[i], "doc")
			for w := 0; w < 8; w++ {
				b.AddTermCount(ids[i], "text", topic*20+(i+w)%20, 1)
			}
			if withNumeric && i%3 == 0 {
				b.AddNumeric(ids[i], "score", float64(topic*10)+float64(i%5)*0.1)
			}
		}
		for i, id := range ids {
			b.AddLink(id, ids[(i+1)%perTopic], "cites", 1)
			b.AddLink(id, ids[(i+7)%perTopic], "cites", 1)
			if i%4 == 0 {
				b.AddLink(id, ids[(i+3)%perTopic], "extends", 0.5)
			}
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if net.NumRelations() != 2 {
		t.Fatalf("test network declares %d relations, want 2", net.NumRelations())
	}
	return net
}

// fitStationary fits the network until EM reaches an exact floating-point
// fixed point: LearnGamma off (so the final Θ is converged under the γ the
// model serves), a single seed, and an effectively-zero EMTol that only
// triggers once an iteration moves Θ by exactly nothing.
func fitStationary(t testing.TB, net *hin.Network, parallelism int) *core.Model {
	t.Helper()
	return fitStationaryWith(t, net, func(o *core.Options) { o.Parallelism = parallelism })
}

// fitStationaryWith is fitStationary with the options further adjusted by
// set.
func fitStationaryWith(t testing.TB, net *hin.Network, set func(*core.Options)) *core.Model {
	t.Helper()
	opts := core.DefaultOptions(2)
	opts.LearnGamma = false
	opts.InitSeeds = 1
	opts.OuterIters = 1
	opts.EMIters = 5000
	opts.EMTol = 1e-300
	set(&opts)
	m, err := core.Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if m.EMIterations >= opts.EMIters {
		t.Fatalf("EM did not reach an exact fixed point within %d iterations", opts.EMIters)
	}
	return m
}

// trainingQuery rebuilds object v's own links and observations as a Query.
func trainingQuery(net *hin.Network, v int) Query {
	q := Query{ID: net.Object(v).ID}
	for _, e := range net.OutEdges(v) {
		q.Links = append(q.Links, Link{
			Relation: net.RelationName(e.Rel),
			To:       net.Object(e.To).ID,
			Weight:   e.Weight,
		})
	}
	for a := 0; a < net.NumAttrs(); a++ {
		spec := net.Attr(a)
		switch spec.Kind {
		case hin.Categorical:
			if tcs := net.TermCounts(a, v); len(tcs) > 0 {
				q.Terms = append(q.Terms, CatObs{Attr: spec.Name, Terms: tcs})
			}
		case hin.Numeric:
			if xs := net.NumericObs(a, v); len(xs) > 0 {
				q.Numeric = append(q.Numeric, NumObs{Attr: spec.Name, Values: xs})
			}
		}
	}
	return q
}

// TestAssignTrainingObjectsGolden is the bitwise reproduction contract:
// assigning a converged model's own training objects — their links and
// observations presented as fold-in queries — must reproduce the model's Θ
// rows bit for bit, at Parallelism 1 and 4 (the fit is bitwise identical
// across parallelism, so the assignments must be too). This is what pins
// the engine to the EM E-step kernel: any divergence in arithmetic or
// summation order fails here on the exact bits. The float32 and ε=1e-6
// fits pin that the engine takes the fit's storage precision and Θ floor
// from the model itself: every case builds its engine with zero Options.
func TestAssignTrainingObjectsGolden(t *testing.T) {
	net := testNet(t, 60, true)
	cases := []struct {
		name string
		set  func(*core.Options)
	}{
		{"parallelism-1", func(o *core.Options) { o.Parallelism = 1 }},
		{"parallelism-4", func(o *core.Options) { o.Parallelism = 4 }},
		{"float32", func(o *core.Options) { o.Precision = core.PrecisionFloat32 }},
		{"epsilon-1e-6", func(o *core.Options) { o.Epsilon = 1e-6 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := fitStationaryWith(t, net, tc.set)
			eng, err := NewEngine(m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			queries := make([]Query, net.NumObjects())
			for v := range queries {
				queries[v] = trainingQuery(net, v)
			}
			out, err := eng.AssignBatch(queries)
			if err != nil {
				t.Fatal(err)
			}
			labels := m.HardLabels()
			for v, a := range out {
				for k, x := range a.Theta {
					if x != m.Theta[v][k] {
						t.Fatalf("object %s theta[%d]: assigned %v, fitted %v (fold-in iters %d)",
							net.Object(v).ID, k, x, m.Theta[v][k], a.FoldInIters)
					}
				}
				if a.Cluster != labels[v] {
					t.Fatalf("object %s: assigned cluster %d, fitted %d", net.Object(v).ID, a.Cluster, labels[v])
				}
			}
		})
	}
}

// TestAssignDeterministicAcrossLinkOrder pins the engine's ordering
// contract: the same query with links presented in any order scores to the
// same bits (the engine stable-sorts by relation then target).
func TestAssignDeterministicAcrossLinkOrder(t *testing.T) {
	net := testNet(t, 40, false)
	m := fitStationary(t, net, 1)
	eng, err := NewEngine(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := trainingQuery(net, 3)
	fwd, err := eng.Assign(q)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), fwd.Theta...)
	// Reverse the links.
	rev := q
	rev.Links = append([]Link(nil), q.Links...)
	for i, j := 0, len(rev.Links)-1; i < j; i, j = i+1, j-1 {
		rev.Links[i], rev.Links[j] = rev.Links[j], rev.Links[i]
	}
	got, err := eng.Assign(rev)
	if err != nil {
		t.Fatal(err)
	}
	for k, x := range got.Theta {
		if x != want[k] {
			t.Fatalf("theta[%d]: %v with reversed links, %v in order", k, x, want[k])
		}
	}
}

// TestAssignNoInformationUniform checks the E-step's "no information" rule
// folded in: a query with neither links nor observations gets the uniform
// posterior.
func TestAssignNoInformationUniform(t *testing.T) {
	net := testNet(t, 40, false)
	m := fitStationary(t, net, 1)
	eng, err := NewEngine(m, Options{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := eng.Assign(Query{ID: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	for k, x := range a.Theta {
		if x != 0.5 {
			t.Fatalf("theta[%d] = %v, want 0.5", k, x)
		}
	}
	if a.Cluster != 0 || a.FoldInIters != 1 {
		t.Fatalf("empty query: cluster %d iters %d, want 0 and 1", a.Cluster, a.FoldInIters)
	}
	if len(a.Top) != 2 || a.Top[0].Cluster != 0 || a.Top[1].Cluster != 1 {
		t.Fatalf("uniform top-k = %v, want clusters 0 then 1 (tie broken by index)", a.Top)
	}
}

// TestAssignTopK checks the top-k list: descending probability, Cluster
// mirrors Top[0], probabilities echo Theta.
func TestAssignTopK(t *testing.T) {
	net := testNet(t, 40, false)
	m := fitStationary(t, net, 1)
	eng, err := NewEngine(m, Options{TopK: 5}) // clamped to K=2
	if err != nil {
		t.Fatal(err)
	}
	if eng.TopK() != 2 {
		t.Fatalf("TopK() = %d, want clamped 2", eng.TopK())
	}
	a, err := eng.Assign(trainingQuery(net, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Top) != 2 {
		t.Fatalf("len(Top) = %d, want 2", len(a.Top))
	}
	if a.Top[0].P < a.Top[1].P {
		t.Fatalf("top-k not descending: %v", a.Top)
	}
	if a.Cluster != a.Top[0].Cluster {
		t.Fatalf("Cluster %d != Top[0].Cluster %d", a.Cluster, a.Top[0].Cluster)
	}
	for _, cp := range a.Top {
		if cp.P != a.Theta[cp.Cluster] {
			t.Fatalf("Top entry %v does not echo Theta %v", cp, a.Theta)
		}
	}
}

// TestAssignValidation drives every typed rejection of the trust boundary.
func TestAssignValidation(t *testing.T) {
	net := testNet(t, 40, true)
	m := fitStationary(t, net, 1)
	eng, err := NewEngine(m, Options{Limits: Limits{MaxBatch: 2, MaxLinks: 2, MaxTerms: 3, MaxValues: 2}})
	if err != nil {
		t.Fatal(err)
	}
	queryErr := func(q Query) *QueryError {
		t.Helper()
		_, err := eng.AssignBatch([]Query{q})
		qe, ok := err.(*QueryError)
		if !ok {
			t.Fatalf("want *QueryError, got %v", err)
		}
		return qe
	}
	limitErr := func(qs []Query) *LimitError {
		t.Helper()
		_, err := eng.AssignBatch(qs)
		le, ok := err.(*LimitError)
		if !ok {
			t.Fatalf("want *LimitError, got %v", err)
		}
		return le
	}

	queryErr(Query{Links: []Link{{Relation: "ghost", To: "d0_000", Weight: 1}}})
	queryErr(Query{Links: []Link{{Relation: "cites", To: "ghost", Weight: 1}}})
	queryErr(Query{Links: []Link{{Relation: "cites", To: "d0_000", Weight: -1}}})
	queryErr(Query{Links: []Link{{Relation: "cites", To: "d0_000", Weight: math.Inf(1)}}})
	queryErr(Query{Terms: []CatObs{{Attr: "ghost", Terms: []hin.TermCount{{Term: 0, Count: 1}}}}})
	queryErr(Query{Terms: []CatObs{{Attr: "score", Terms: []hin.TermCount{{Term: 0, Count: 1}}}}})
	queryErr(Query{Terms: []CatObs{{Attr: "text", Terms: []hin.TermCount{{Term: 40, Count: 1}}}}})
	queryErr(Query{Terms: []CatObs{{Attr: "text", Terms: []hin.TermCount{{Term: 0, Count: math.NaN()}}}}})
	queryErr(Query{Numeric: []NumObs{{Attr: "text", Values: []float64{1}}}})
	queryErr(Query{Numeric: []NumObs{{Attr: "score", Values: []float64{math.NaN()}}}})
	if qe := queryErr(Query{ID: "q7", Links: []Link{{Relation: "ghost", To: "d0_000", Weight: 1}}}); qe.ID != "q7" {
		t.Fatalf("QueryError.ID = %q, want q7", qe.ID)
	}

	if le := limitErr([]Query{{}, {}, {}}); le.Query != -1 || le.What != "batch size" {
		t.Fatalf("batch overflow: %v", le)
	}
	links := []Link{{Relation: "cites", To: "d0_000", Weight: 1}, {Relation: "cites", To: "d0_001", Weight: 1}, {Relation: "cites", To: "d0_002", Weight: 1}}
	if le := limitErr([]Query{{Links: links}}); le.Query != 0 || le.What != "links" {
		t.Fatalf("link overflow: %v", le)
	}
	many := make([]hin.TermCount, 4)
	for i := range many {
		many[i] = hin.TermCount{Term: i, Count: 1}
	}
	if le := limitErr([]Query{{Terms: []CatObs{{Attr: "text", Terms: many}}}}); le.What != "term counts" {
		t.Fatalf("terms overflow: %v", le)
	}
	if le := limitErr([]Query{{Numeric: []NumObs{{Attr: "score", Values: []float64{1, 2, 3}}}}}); le.What != "numeric observations" {
		t.Fatalf("values overflow: %v", le)
	}

	// A rejected batch returns no partial results, and the engine still
	// works afterwards (a query inside every bound).
	a, err := eng.Assign(Query{Links: links[:2]})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Theta) != 2 {
		t.Fatalf("engine unusable after rejection: %v", a)
	}
}

// TestAssignPartialAttributes exercises the incomplete-attributes story the
// subsystem exists for: the same object scored with progressively less
// evidence stays on its cluster, and subsets never error.
func TestAssignPartialAttributes(t *testing.T) {
	net := testNet(t, 60, true)
	m := fitStationary(t, net, 1)
	eng, err := NewEngine(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full := trainingQuery(net, 0) // topic-0 doc with text, score and links
	want := m.HardLabels()[0]

	linksOnly := Query{Links: full.Links}
	textOnly := Query{Terms: full.Terms}
	for name, q := range map[string]Query{"full": full, "links-only": linksOnly, "text-only": textOnly} {
		a, err := eng.Assign(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Cluster != want {
			t.Errorf("%s: cluster %d, want %d (theta %v)", name, a.Cluster, want, a.Theta)
		}
	}
}

// TestAssignBatchSteadyStateZeroAlloc pins the arena contract: after the
// first call sized the scratch, AssignBatch allocates nothing.
func TestAssignBatchSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not exact under -race")
	}
	net := testNet(t, 60, true)
	m := fitStationary(t, net, 1)
	eng, err := NewEngine(m, Options{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]Query, 32)
	for v := range queries {
		queries[v] = trainingQuery(net, v)
	}
	if _, err := eng.AssignBatch(queries); err != nil { // warm-up sizes the arena
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := eng.AssignBatch(queries); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state AssignBatch allocates %v allocs/op, want 0", allocs)
	}
}
