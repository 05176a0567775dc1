// Package eval implements the two effectiveness measures of the paper's §5.2
// — Normalized Mutual Information against ground-truth labels (Strehl &
// Ghosh) and link-prediction Mean Average Precision — plus the three
// membership-similarity functions compared in Tables 2–4 (cosine, negative
// Euclidean distance, negative cross entropy).
package eval

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"genclus/internal/hin"
	"genclus/internal/stats"
)

// NMI computes the normalized mutual information between two labelings of
// the same objects: I(X;Y)/√(H(X)·H(Y)). It is 1 for identical partitions
// (up to renaming) and ≈ 0 for independent ones. Degenerate cases where one
// side has a single cluster yield 0 by convention.
func NMI(pred, truth []int) (float64, error) {
	if len(pred) != len(truth) {
		return 0, fmt.Errorf("eval: NMI length mismatch %d vs %d", len(pred), len(truth))
	}
	n := len(pred)
	if n == 0 {
		return 0, fmt.Errorf("eval: NMI of empty labeling")
	}
	joint := make(map[[2]int]float64)
	px := make(map[int]float64)
	py := make(map[int]float64)
	for i := range pred {
		joint[[2]int{pred[i], truth[i]}]++
		px[pred[i]]++
		py[truth[i]]++
	}
	// Every sum folds in sorted-key order: map iteration order is random,
	// and summing in a different order changes the last bits.
	fn := float64(n)
	cells := make([][2]int, 0, len(joint))
	for key := range joint {
		cells = append(cells, key)
	}
	slices.SortFunc(cells, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	var mi float64
	for _, key := range cells {
		pxy := joint[key] / fn
		mi += pxy * math.Log(pxy/(px[key[0]]/fn*py[key[1]]/fn))
	}
	hx, hy := entropy(px, fn), entropy(py, fn)
	if hx == 0 || hy == 0 {
		return 0, nil
	}
	nmi := mi / math.Sqrt(hx*hy)
	// Guard tiny negative values from floating point.
	if nmi < 0 && nmi > -1e-12 {
		nmi = 0
	}
	return nmi, nil
}

// entropy is −Σ p·ln p over the counts of m (p = count/n), in ascending
// key order.
func entropy(m map[int]float64, n float64) float64 {
	var h float64
	for _, key := range slices.Sorted(maps.Keys(m)) {
		p := m[key] / n
		h -= p * math.Log(p)
	}
	return h
}

// NMIOnSubset evaluates NMI over the given object indices, reading predicted
// labels from pred (dense, all objects) and truth from the labels map.
func NMIOnSubset(objs []int, pred []int, truth map[int]int) (float64, error) {
	if len(objs) == 0 {
		return 0, fmt.Errorf("eval: empty evaluation subset")
	}
	p := make([]int, 0, len(objs))
	tr := make([]int, 0, len(objs))
	for _, v := range objs {
		lab, ok := truth[v]
		if !ok {
			return 0, fmt.Errorf("eval: object %d has no ground-truth label", v)
		}
		if v < 0 || v >= len(pred) {
			return 0, fmt.Errorf("eval: object %d outside prediction range", v)
		}
		p = append(p, pred[v])
		tr = append(tr, lab)
	}
	return NMI(p, tr)
}

// HardLabels converts a soft membership matrix to argmax labels.
func HardLabels(theta [][]float64) []int {
	out := make([]int, len(theta))
	for v, row := range theta {
		out[v] = stats.ArgMax(row)
	}
	return out
}

// Similarity scores a (query, candidate) membership pair; higher means the
// candidate ranks earlier. The three instances below are the functions of
// §5.2.2.
type Similarity struct {
	Name string
	Func func(query, candidate []float64) float64
}

// Cosine similarity cos(θ_i, θ_j).
func Cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for k := range a {
		dot += a[k] * b[k]
		na += a[k] * a[k]
		nb += b[k] * b[k]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// NegEuclidean is −‖θ_i − θ_j‖.
func NegEuclidean(a, b []float64) float64 {
	var ss float64
	for k := range a {
		d := a[k] - b[k]
		ss += d * d
	}
	return -math.Sqrt(ss)
}

// NegCrossEntropy is −H(θ_j, θ_i) = Σ_k θ_jk·log θ_ik with the query as i
// and the candidate as j — the asymmetric function the paper finds best.
func NegCrossEntropy(query, candidate []float64) float64 {
	var s float64
	for k := range query {
		if candidate[k] == 0 {
			continue
		}
		lq := math.Log(query[k])
		s += candidate[k] * lq
	}
	return s
}

// Similarities returns the three similarity functions in the order the
// paper's tables list them.
func Similarities() []Similarity {
	return []Similarity{
		{Name: "cos(θi,θj)", Func: Cosine},
		{Name: "-||θi-θj||", Func: NegEuclidean},
		{Name: "-H(θj,θi)", Func: NegCrossEntropy},
	}
}

// AveragePrecision computes AP for one ranked list: ranked is the candidate
// order (best first), relevant the set of correct candidates. Standard
// definition: mean over relevant ranks of precision-at-that-rank.
func AveragePrecision(ranked []int, relevant map[int]bool) float64 {
	if len(relevant) == 0 {
		return 0
	}
	var hits int
	var sum float64
	for pos, cand := range ranked {
		if relevant[cand] {
			hits++
			sum += float64(hits) / float64(pos+1)
		}
	}
	return sum / float64(len(relevant))
}

// LinkPredictionMAP evaluates how well memberships predict the links of one
// relation (§5.2.2): for every source object of the relation, candidates of
// the relation's target type are ranked by sim(θ_source, θ_candidate) and
// scored by MAP against the actually linked targets.
//
// Queries with no out-link of the relation are skipped (no ground truth to
// score). Ties in similarity are broken by object index for determinism.
func LinkPredictionMAP(net *hin.Network, theta [][]float64, relation string, sim Similarity) (float64, error) {
	rel, ok := net.RelationID(relation)
	if !ok {
		return 0, fmt.Errorf("eval: relation %q not in network", relation)
	}
	if len(theta) != net.NumObjects() {
		return 0, fmt.Errorf("eval: theta has %d rows for %d objects", len(theta), net.NumObjects())
	}
	// Determine the relation's source and target types from its edges.
	var srcType, dstType string
	for _, e := range net.Edges() {
		if e.Rel == rel {
			srcType = net.TypeOf(e.From)
			dstType = net.TypeOf(e.To)
			break
		}
	}
	if srcType == "" {
		return 0, fmt.Errorf("eval: relation %q has no edges", relation)
	}
	candidates := net.ObjectsOfType(dstType)
	if len(candidates) == 0 {
		return 0, fmt.Errorf("eval: no candidates of type %q", dstType)
	}

	var apSum float64
	var queries int
	for _, q := range net.ObjectsOfType(srcType) {
		relevant := make(map[int]bool)
		for _, e := range net.OutEdges(q) {
			if e.Rel == rel {
				relevant[e.To] = true
			}
		}
		if len(relevant) == 0 {
			continue
		}
		apSum += queryAP(theta, q, candidates, nil, relevant, sim)
		queries++
	}
	if queries == 0 {
		return 0, fmt.Errorf("eval: no queries with links of relation %q", relation)
	}
	return apSum / float64(queries), nil
}

// LinkPredictionMAPHoldout scores true out-of-sample prediction: theta was
// fitted on a training network from which the heldOut edges were removed;
// for every query with at least one held-out edge, candidates of the
// relation's target type are ranked by similarity — excluding the query's
// remaining training links, which the model has already seen — and the
// held-out targets are the relevant set.
//
// trainNet must be the network the model was fitted on (it supplies the
// known positives to exclude); heldOut the removed edges of the relation.
func LinkPredictionMAPHoldout(trainNet *hin.Network, theta [][]float64, relation string, heldOut []hin.Edge, sim Similarity) (float64, error) {
	rel, ok := trainNet.RelationID(relation)
	if !ok {
		return 0, fmt.Errorf("eval: relation %q not in network", relation)
	}
	if len(theta) != trainNet.NumObjects() {
		return 0, fmt.Errorf("eval: theta has %d rows for %d objects", len(theta), trainNet.NumObjects())
	}
	relevant := make(map[int]map[int]bool)
	var dstType string
	for _, e := range heldOut {
		if e.Rel != rel {
			continue
		}
		if relevant[e.From] == nil {
			relevant[e.From] = make(map[int]bool)
		}
		relevant[e.From][e.To] = true
		dstType = trainNet.TypeOf(e.To)
	}
	if len(relevant) == 0 {
		return 0, fmt.Errorf("eval: no held-out edges of relation %q", relation)
	}
	candidates := trainNet.ObjectsOfType(dstType)

	// Fold the queries in ascending object index: a sum in map order would
	// change in its last bits from call to call.
	queryIDs := make([]int, 0, len(relevant))
	for q := range relevant {
		queryIDs = append(queryIDs, q)
	}
	sort.Ints(queryIDs)
	var apSum float64
	for _, q := range queryIDs {
		seen := make(map[int]bool)
		for _, e := range trainNet.OutEdges(q) {
			if e.Rel == rel {
				seen[e.To] = true
			}
		}
		apSum += queryAP(theta, q, candidates, seen, relevant[q], sim)
	}
	return apSum / float64(len(queryIDs)), nil
}

// queryAP ranks candidates by sim(θ_q, θ_c), best first with ties broken by
// object index, skipping q itself and every candidate in skip, and returns
// the average precision of relevant in that ranking.
func queryAP(theta [][]float64, q int, candidates []int, skip, relevant map[int]bool, sim Similarity) float64 {
	type scored struct {
		obj   int
		score float64
	}
	list := make([]scored, 0, len(candidates))
	for _, c := range candidates {
		if c == q || skip[c] {
			continue
		}
		list = append(list, scored{obj: c, score: sim.Func(theta[q], theta[c])})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].score != list[j].score {
			return list[i].score > list[j].score
		}
		return list[i].obj < list[j].obj
	})
	ranked := make([]int, len(list))
	for i, s := range list {
		ranked[i] = s.obj
	}
	return AveragePrecision(ranked, relevant)
}

// MeanStd summarizes a series of per-run metric values.
type MeanStd struct {
	Mean, Std float64
	N         int
}

// Summarize computes mean and population standard deviation (matching the
// paper's 20-run mean/std bars in Figs. 5–6).
func Summarize(values []float64) MeanStd {
	if len(values) == 0 {
		return MeanStd{Mean: math.NaN(), Std: math.NaN()}
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(len(values))
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	return MeanStd{Mean: mean, Std: math.Sqrt(ss / float64(len(values))), N: len(values)}
}
