package eval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"genclus/internal/hin"
)

// holdoutFixture builds a bipartite network with two source groups and two
// target groups; sources link within their group. One edge is withheld.
func holdoutFixture(t *testing.T) (train *hin.Network, held []hin.Edge, theta [][]float64) {
	t.Helper()
	b := hin.NewBuilder()
	for i := 0; i < 4; i++ {
		b.AddObject("s"+string(rune('0'+i)), "src")
	}
	for i := 0; i < 4; i++ {
		b.AddObject("t"+string(rune('0'+i)), "dst")
	}
	link := func(s, d string) {
		b.AddLink(s, d, "points", 1)
	}
	// Group 0: s0, s1 → t0, t1. Group 1: s2, s3 → t2, t3.
	link("s0", "t0")
	// s0 → t1 is the held-out edge (not added).
	link("s1", "t0")
	link("s1", "t1")
	link("s2", "t2")
	link("s2", "t3")
	link("s3", "t2")
	link("s3", "t3")
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s0, _ := net.IndexOf("s0")
	t1, _ := net.IndexOf("t1")
	rel, _ := net.RelationID("points")
	held = []hin.Edge{{From: s0, To: t1, Rel: rel, Weight: 1}}

	theta = make([][]float64, net.NumObjects())
	set := func(id string, row []float64) {
		v, _ := net.IndexOf(id)
		theta[v] = row
	}
	set("s0", []float64{0.9, 0.1})
	set("s1", []float64{0.9, 0.1})
	set("s2", []float64{0.1, 0.9})
	set("s3", []float64{0.1, 0.9})
	set("t0", []float64{0.85, 0.15})
	set("t1", []float64{0.88, 0.12})
	set("t2", []float64{0.12, 0.88})
	set("t3", []float64{0.15, 0.85})
	return net, held, theta
}

func TestHoldoutMAPPerfect(t *testing.T) {
	train, held, theta := holdoutFixture(t)
	// Candidates for s0: {t1, t2, t3} (t0 is a training positive and is
	// excluded). t1 is most similar → AP = 1.
	for _, sim := range Similarities() {
		got, err := LinkPredictionMAPHoldout(train, theta, "points", held, sim)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-1) > 1e-12 {
			t.Errorf("%s: holdout MAP = %v, want 1", sim.Name, got)
		}
	}
}

func TestHoldoutMAPWrongMembership(t *testing.T) {
	train, held, theta := holdoutFixture(t)
	// Flip s0's membership: t1 now ranks behind t2 and t3 → AP = 1/3.
	s0, _ := train.IndexOf("s0")
	theta[s0] = []float64{0.1, 0.9}
	got, err := LinkPredictionMAPHoldout(train, theta, "points", held, Similarities()[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("holdout MAP = %v, want 1/3", got)
	}
}

func TestHoldoutMAPErrors(t *testing.T) {
	train, held, theta := holdoutFixture(t)
	if _, err := LinkPredictionMAPHoldout(train, theta, "ghost", held, Similarities()[0]); err == nil {
		t.Error("unknown relation should error")
	}
	if _, err := LinkPredictionMAPHoldout(train, theta[:2], "points", held, Similarities()[0]); err == nil {
		t.Error("short theta should error")
	}
	if _, err := LinkPredictionMAPHoldout(train, theta, "points", nil, Similarities()[0]); err == nil {
		t.Error("empty holdout should error")
	}
}

// TestHoldoutMAPFoldsQueriesInIndexOrder pins the holdout MAP to one sum
// order. Many queries with unlike average precisions make a sum in map
// order differ in its last bits between calls; every call must equal the
// per-query APs folded in ascending object index.
func TestHoldoutMAPFoldsQueriesInIndexOrder(t *testing.T) {
	const nSrc, nDst = 60, 23
	rng := rand.New(rand.NewSource(3))
	b := hin.NewBuilder()
	for i := 0; i < nDst; i++ {
		b.AddObject(fmt.Sprintf("t%02d", i), "dst")
	}
	for i := 0; i < nSrc; i++ {
		src := fmt.Sprintf("s%02d", i)
		b.AddObject(src, "src")
		b.AddLink(src, fmt.Sprintf("t%02d", rng.Intn(nDst)), "points", 1)
	}
	train, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := train.RelationID("points")
	theta := make([][]float64, train.NumObjects())
	for v := range theta {
		a := rng.Float64()
		theta[v] = []float64{a, 1 - a}
	}
	var held []hin.Edge
	for i := 0; i < nSrc; i++ {
		s, _ := train.IndexOf(fmt.Sprintf("s%02d", i))
		for j := 0; j < 1+i%3; j++ {
			d, _ := train.IndexOf(fmt.Sprintf("t%02d", rng.Intn(nDst)))
			held = append(held, hin.Edge{From: s, To: d, Rel: rel, Weight: 1})
		}
	}
	sim := Similarities()[2]

	// The reference: each query's AP on its own (a one-query MAP is that
	// query's AP exactly), summed in ascending source index.
	var sum float64
	for i := 0; i < nSrc; i++ {
		s, _ := train.IndexOf(fmt.Sprintf("s%02d", i))
		var own []hin.Edge
		for _, e := range held {
			if e.From == s {
				own = append(own, e)
			}
		}
		ap, err := LinkPredictionMAPHoldout(train, theta, "points", own, sim)
		if err != nil {
			t.Fatal(err)
		}
		sum += ap
	}
	want := sum / nSrc

	for call := 0; call < 50; call++ {
		got, err := LinkPredictionMAPHoldout(train, theta, "points", held, sim)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: holdout MAP = %v, want %v (ascending query order)", call, got, want)
		}
	}
}
