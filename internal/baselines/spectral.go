package baselines

import (
	"fmt"
	"math"
	"sort"

	"genclus/internal/hin"
	"genclus/internal/linalg"
)

// SpectralCombine implements the Shiga et al. (KDD'07)-style baseline the
// paper describes: a combined similarity matrix
//
//	S = ½·B̂ + ½·Ĝ
//
// where B̂ is the (max-abs normalized) Newman modularity matrix of the
// symmetrized, relation-agnostic adjacency, and Ĝ the (max-abs normalized)
// Gram matrix of the standardized interpolated features (the spectral
// relaxation of k-means, Zha et al.). §5.2.1 gives the two parts equal
// weights. The top-K eigenvectors of S embed the objects; k-means on the
// embedding yields hard labels.
//
// features must have one row per network object, all of one length —
// typically the output of InterpolateNumeric + Standardize.
func SpectralCombine(net *hin.Network, features [][]float64, k int, seed int64) (*Result, error) {
	if net == nil {
		return nil, fmt.Errorf("baselines: nil network")
	}
	n := net.NumObjects()
	if len(features) != n {
		return nil, fmt.Errorf("baselines: %d feature rows for %d objects", len(features), n)
	}
	if k < 2 || k > n {
		return nil, fmt.Errorf("baselines: spectral K = %d out of range 2..%d", k, n)
	}
	for i, f := range features {
		if len(f) != len(features[0]) {
			return nil, fmt.Errorf("baselines: feature row %d has dim %d, want %d", i, len(f), len(features[0]))
		}
	}
	s := newSimilarity(net, features)

	// Top-K eigenvectors → spectral embedding. Following the spectral
	// relaxation of k-means (Zha et al.), each eigenvector is scaled by
	// √max(λ, 0) — the PCA-style embedding — rather than row-normalized
	// (row normalization would collapse collinear cluster means, exactly
	// the geometry of the weather Setting 1 diagonal).
	vals, vecs, err := linalg.TopEigen(n, k, s.shift, s.apply, seed)
	if err != nil {
		return nil, fmt.Errorf("baselines: spectral eigendecomposition: %w", err)
	}
	embed := make([][]float64, n)
	for v := range embed {
		embed[v] = make([]float64, k)
	}
	for c, vec := range vecs {
		if vals[c] > 0 {
			scale := math.Sqrt(vals[c])
			for v, x := range vec {
				embed[v][c] = x * scale
			}
		}
	}
	km := DefaultKMeansOptions(k)
	km.Seed = seed
	return KMeans(embed, km)
}

// similarity is SpectralCombine's S = sB·B + sG·G, held as the edge list
// and the n × D feature rows and applied as an operator: S·x costs
// O(links + n·D) and no n × n matrix is ever stored. B_ij = A_ij − d_i·d_j/2m
// over the symmetrized adjacency A (half of each link's weight in each
// direction), and G = F·Fᵀ.
type similarity struct {
	net      *hin.Network
	features [][]float64
	deg      []float64 // d_i, the weighted degree of i in A
	twoM     float64   // 2m = Σ_i d_i
	// maxB and maxG are max_ij |B_ij| and max_ij |G_ij|; sB = ½/maxB and
	// sG = ½/maxG normalize each part (0 where a part vanishes).
	maxB, maxG float64
	sB, sG     float64
	shift      float64 // the Gershgorin bound max_i Σ_j |S_ij|
	ftx        []float64
}

func newSimilarity(net *hin.Network, features [][]float64) *similarity {
	n := net.NumObjects()
	s := &similarity{net: net, features: features, deg: make([]float64, n), ftx: make([]float64, len(features[0]))}
	for _, e := range net.Edges() {
		w := e.Weight / 2
		s.deg[e.From] += w
		s.deg[e.To] += w
		s.twoM += e.Weight
	}

	// max|G| sits on the diagonal: |f_i·f_j| ≤ max(‖f_i‖², ‖f_j‖²) by
	// Cauchy–Schwarz.
	for _, f := range features {
		var sq float64
		for _, v := range f {
			sq += v * v
		}
		s.maxG = math.Max(s.maxG, sq)
	}
	row := make([]float64, n)
	if s.twoM > 0 {
		for i := 0; i < n; i++ {
			s.modularityRow(i, row)
			for _, b := range row {
				s.maxB = math.Max(s.maxB, math.Abs(b))
			}
		}
	}
	if s.maxB > 0 {
		s.sB = 0.5 / s.maxB
	}
	if s.maxG > 0 {
		s.sG = 0.5 / s.maxG
	}

	for i := 0; i < n; i++ {
		if s.twoM > 0 {
			s.modularityRow(i, row)
		}
		var sum float64
		for j, b := range row {
			var g float64
			for d, v := range features[i] {
				g += v * features[j][d]
			}
			// The conversions forbid fusing a product into the sum, so
			// each scaled part rounds as it does in a stored S.
			sum += math.Abs(float64(b*s.sB) + float64(g*s.sG))
		}
		s.shift = math.Max(s.shift, sum)
	}
	return s
}

// modularityRow writes row i of B into row. A's row is accumulated link by
// link in edge order, the order in which a stored A sums duplicate and
// two-way links. Edges are sorted by source: i's in-links from lower
// sources come first, then its out-links, then the remaining in-links.
func (s *similarity) modularityRow(i int, row []float64) {
	clear(row)
	from, _, weight := s.net.InLinks(i)
	for k := 0; k < len(from) && from[k] < i; k++ {
		row[from[k]] += weight[k] / 2
	}
	for _, e := range s.net.OutEdges(i) {
		w := e.Weight / 2
		row[e.To] += w
		if e.To == i {
			row[i] += w // a self-loop adds its half weight in both directions
		}
	}
	for k := sort.SearchInts(from, i+1); k < len(from); k++ {
		row[from[k]] += weight[k] / 2
	}
	for j := range row {
		row[j] -= s.deg[i] * s.deg[j] / s.twoM
	}
}

// apply writes S·x = sB·(A·x − d·(dᵀx)/2m) + sG·F·(Fᵀx) into y.
func (s *similarity) apply(y, x []float64) {
	clear(y)
	if s.twoM > 0 {
		for _, e := range s.net.Edges() {
			w := e.Weight / 2
			y[e.From] += w * x[e.To]
			y[e.To] += w * x[e.From]
		}
		var dx float64
		for i, d := range s.deg {
			dx += d * x[i]
		}
		c := dx / s.twoM
		for i, d := range s.deg {
			y[i] = s.sB * (y[i] - d*c)
		}
	}
	clear(s.ftx)
	for i, f := range s.features {
		for d, v := range f {
			s.ftx[d] += v * x[i]
		}
	}
	for i, f := range s.features {
		var g float64
		for d, v := range f {
			g += v * s.ftx[d]
		}
		y[i] += s.sG * g
	}
}
