// Package spatial provides k-nearest-neighbor search over low-dimensional
// points. The weather sensor network generator (paper Appendix C) links each
// sensor to its k nearest neighbors of each sensor type under geo-distance;
// this package supplies the kd-tree that makes generating thousand-sensor
// networks fast. The brute-force reference the tree is property-tested
// against, and the structural invariant check, live in the test file.
package spatial

import (
	"container/heap"
	"math"
	"sort"
)

// Point is a 2-D location (the paper places sensors in a unit circle).
type Point struct {
	X, Y float64
}

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Norm returns the distance from the origin.
func (p Point) Norm() float64 { return math.Sqrt(p.X*p.X + p.Y*p.Y) }

// KDTree is a static 2-d tree over a fixed point set. Indices returned by
// queries refer to the point slice passed to Build.
type KDTree struct {
	pts   []Point
	nodes []kdNode
	root  int
}

type kdNode struct {
	idx         int // index into pts
	axis        int // 0 = X, 1 = Y
	left, right int // node indices, −1 when absent
}

// Build constructs a balanced kd-tree over pts. The tree keeps a reference
// to the slice; callers must not mutate it afterwards.
func Build(pts []Point) *KDTree {
	t := &KDTree{pts: pts, root: -1}
	if len(pts) == 0 {
		return t
	}
	idxs := make([]int, len(pts))
	for i := range idxs {
		idxs[i] = i
	}
	t.nodes = make([]kdNode, 0, len(pts))
	t.root = t.build(idxs, 0)
	return t
}

func (t *KDTree) build(idxs []int, depth int) int {
	if len(idxs) == 0 {
		return -1
	}
	axis := depth % 2
	sort.Slice(idxs, func(a, b int) bool {
		pa, pb := t.pts[idxs[a]], t.pts[idxs[b]]
		if axis == 0 {
			return pa.X < pb.X
		}
		return pa.Y < pb.Y
	})
	mid := len(idxs) / 2
	node := kdNode{idx: idxs[mid], axis: axis}
	self := len(t.nodes)
	t.nodes = append(t.nodes, node)
	left := t.build(idxs[:mid], depth+1)
	right := t.build(idxs[mid+1:], depth+1)
	t.nodes[self].left = left
	t.nodes[self].right = right
	return self
}

// Neighbor is one kNN result.
type Neighbor struct {
	Index int
	Dist2 float64
}

// maxHeap of neighbors ordered by distance (largest on top) so the current
// worst candidate can be evicted in O(log k).
type nnHeap []Neighbor

func (h nnHeap) Len() int            { return len(h) }
func (h nnHeap) Less(i, j int) bool  { return h[i].Dist2 > h[j].Dist2 }
func (h nnHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nnHeap) Push(x interface{}) { *h = append(*h, x.(Neighbor)) }
func (h *nnHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// KNN returns the k nearest neighbors of query, sorted by ascending
// distance. exclude, when ≥ 0, removes that point index from consideration
// (a sensor is not its own neighbor). If fewer than k points qualify, all of
// them are returned.
func (t *KDTree) KNN(query Point, k int, exclude int) []Neighbor {
	if k <= 0 || t.root < 0 {
		return nil
	}
	h := make(nnHeap, 0, k+1)
	t.search(t.root, query, k, exclude, &h)
	out := make([]Neighbor, len(h))
	copy(out, h)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Dist2 != out[b].Dist2 {
			return out[a].Dist2 < out[b].Dist2
		}
		return out[a].Index < out[b].Index
	})
	return out
}

func (t *KDTree) search(ni int, q Point, k, exclude int, h *nnHeap) {
	if ni < 0 {
		return
	}
	node := t.nodes[ni]
	p := t.pts[node.idx]
	if node.idx != exclude {
		d2 := q.Dist2(p)
		if h.Len() < k {
			heap.Push(h, Neighbor{Index: node.idx, Dist2: d2})
		} else if d2 < (*h)[0].Dist2 {
			(*h)[0] = Neighbor{Index: node.idx, Dist2: d2}
			heap.Fix(h, 0)
		}
	}
	var diff float64
	if node.axis == 0 {
		diff = q.X - p.X
	} else {
		diff = q.Y - p.Y
	}
	near, far := node.left, node.right
	if diff > 0 {
		near, far = far, near
	}
	t.search(near, q, k, exclude, h)
	// Prune the far subtree when the splitting plane is farther away than the
	// current worst candidate (and we already have k candidates).
	if h.Len() < k || diff*diff < (*h)[0].Dist2 {
		t.search(far, q, k, exclude, h)
	}
}
