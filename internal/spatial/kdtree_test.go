package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randomPoints(rng *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.NormFloat64(), Y: rng.NormFloat64()}
	}
	return pts
}

// bruteKNN is the O(n) reference the kd-tree is validated against.
func bruteKNN(pts []Point, query Point, k int, exclude int) []Neighbor {
	if k <= 0 {
		return nil
	}
	all := make([]Neighbor, 0, len(pts))
	for i, p := range pts {
		if i == exclude {
			continue
		}
		all = append(all, Neighbor{Index: i, Dist2: query.Dist2(p)})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist2 != all[b].Dist2 {
			return all[a].Dist2 < all[b].Dist2
		}
		return all[a].Index < all[b].Index
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestPointDistance(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if p.Dist2(q) != 25 {
		t.Error("3-4-5 triangle broken")
	}
	if q.Norm() != 5 {
		t.Error("Norm wrong")
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(400)
		pts := randomPoints(rng, n)
		tree := Build(pts)
		if err := tree.validate(); err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(12)
		for q := 0; q < 10; q++ {
			query := Point{rng.NormFloat64(), rng.NormFloat64()}
			exclude := -1
			if rng.Intn(2) == 0 && n > 0 {
				exclude = rng.Intn(n)
			}
			got := tree.KNN(query, k, exclude)
			want := bruteKNN(pts, query, k, exclude)
			if len(got) != len(want) {
				t.Fatalf("trial %d: result sizes differ: %d vs %d", trial, len(got), len(want))
			}
			for i := range got {
				// Indices can legitimately differ on exact distance ties;
				// distances must agree.
				if math.Abs(got[i].Dist2-want[i].Dist2) > 1e-12 {
					t.Fatalf("trial %d: neighbor %d dist %v vs brute %v", trial, i, got[i].Dist2, want[i].Dist2)
				}
			}
		}
	}
}

func TestKNNSelfExclusion(t *testing.T) {
	pts := []Point{{0, 0}, {1, 0}, {2, 0}}
	tree := Build(pts)
	got := tree.KNN(pts[0], 2, 0)
	for _, nb := range got {
		if nb.Index == 0 {
			t.Fatal("excluded point returned")
		}
	}
	if len(got) != 2 || got[0].Index != 1 || got[1].Index != 2 {
		t.Fatalf("unexpected neighbors %v", got)
	}
}

func TestKNNSortedAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	pts := randomPoints(rng, 200)
	tree := Build(pts)
	res := tree.KNN(Point{0.1, -0.2}, 15, -1)
	for i := 1; i < len(res); i++ {
		if res[i].Dist2 < res[i-1].Dist2 {
			t.Fatal("results not sorted by distance")
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	empty := Build(nil)
	if res := empty.KNN(Point{}, 3, -1); res != nil {
		t.Error("empty tree should return nil")
	}
	if len(empty.pts) != 0 {
		t.Error("empty tree Len != 0")
	}
	one := Build([]Point{{1, 1}})
	if res := one.KNN(Point{}, 3, -1); len(res) != 1 || res[0].Index != 0 {
		t.Errorf("single-point tree: %v", res)
	}
	// k <= 0.
	if res := one.KNN(Point{}, 0, -1); res != nil {
		t.Error("k=0 should return nil")
	}
	// k larger than available points.
	three := Build([]Point{{0, 0}, {1, 1}, {2, 2}})
	if res := three.KNN(Point{}, 10, 1); len(res) != 2 {
		t.Errorf("expected 2 results, got %d", len(res))
	}
}

func TestKNNDuplicatePoints(t *testing.T) {
	pts := []Point{{1, 1}, {1, 1}, {1, 1}, {5, 5}}
	tree := Build(pts)
	res := tree.KNN(Point{1, 1}, 3, 0)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Dist2 != 0 || res[1].Dist2 != 0 {
		t.Error("duplicate points should be at distance 0")
	}
}

func TestKNNPropertyQuick(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		k := 1 + int(kRaw)%10
		pts := randomPoints(rng, n)
		tree := Build(pts)
		query := Point{rng.NormFloat64(), rng.NormFloat64()}
		got := tree.KNN(query, k, -1)
		want := bruteKNN(pts, query, k, -1)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if math.Abs(got[i].Dist2-want[i].Dist2) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := randomPoints(rng, 50)
	tree := Build(pts)
	if err := tree.validate(); err != nil {
		t.Fatalf("fresh tree invalid: %v", err)
	}
	// Corrupt a point far outside its region; validate must notice for at
	// least one corruption (the root's point can move freely, so corrupt a
	// leaf-ish point instead by scanning for a detectable one).
	detected := false
	for i := range pts {
		saved := pts[i]
		pts[i] = Point{X: 1e6, Y: -1e6}
		if tree.validate() != nil {
			detected = true
		}
		pts[i] = saved
		if detected {
			break
		}
	}
	if !detected {
		t.Error("validate never detected a corrupted point")
	}
}

func BenchmarkKNNTree1000(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	pts := randomPoints(rng, 1000)
	tree := Build(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.KNN(pts[i%len(pts)], 5, i%len(pts))
	}
}

func BenchmarkBruteKNN1000(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	pts := randomPoints(rng, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bruteKNN(pts, pts[i%len(pts)], 5, i%len(pts))
	}
}

// validate checks the kd-tree structural invariant (every node's point lies
// on the correct side of each ancestor's splitting plane).
func (t *KDTree) validate() error {
	if t.root < 0 {
		return nil
	}
	return t.validateNode(t.root, Point{math.Inf(-1), math.Inf(-1)}, Point{math.Inf(1), math.Inf(1)})
}

func (t *KDTree) validateNode(ni int, lo, hi Point) error {
	if ni < 0 {
		return nil
	}
	node := t.nodes[ni]
	p := t.pts[node.idx]
	if p.X < lo.X || p.X > hi.X || p.Y < lo.Y || p.Y > hi.Y {
		return fmt.Errorf("spatial: node %d at %v violates bounds [%v, %v]", node.idx, p, lo, hi)
	}
	leftHi, rightLo := hi, lo
	if node.axis == 0 {
		leftHi.X = p.X
		rightLo.X = p.X
	} else {
		leftHi.Y = p.Y
		rightLo.Y = p.Y
	}
	if err := t.validateNode(node.left, lo, leftHi); err != nil {
		return err
	}
	return t.validateNode(node.right, rightLo, hi)
}
