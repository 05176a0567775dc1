package linalg

import (
	"fmt"
	"math"
)

// TopEigen computes the k algebraically-largest eigenpairs of a symmetric
// n×n operator via shifted power iteration with Hotelling deflation. apply
// writes A·x into y and never sees the matrix itself, so A need not be
// stored. shift must bound |λ| (a Gershgorin row-sum bound does), so that
// A + shift·I ⪰ 0 and its dominant eigenvalue is the algebraically largest
// of A — spectral clustering needs largest, not largest-magnitude.
//
// rngSeed seeds the deterministic start vectors. Accuracy is adequate for
// clustering embeddings (the downstream k-means only needs the invariant
// subspace, not digits of λ). vectors[c] is the c-th eigenvector.
func TopEigen(n, k int, shift float64, apply func(y, x []float64), rngSeed int64) (values []float64, vectors [][]float64, err error) {
	if k <= 0 || k > n {
		return nil, nil, fmt.Errorf("linalg: TopEigen k=%d out of range 1..%d", k, n)
	}
	values = make([]float64, 0, k)
	vectors = make([][]float64, 0, k)

	state := uint64(rngSeed)*2654435761 + 1
	nextRand := func() float64 {
		// xorshift64* — deterministic start vectors without importing math/rand.
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		return float64(state*2685821657736338717>>11) / float64(1<<53)
	}

	const maxIter = 3000
	const tol = 1e-10
	for comp := 0; comp < k; comp++ {
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = nextRand() - 0.5
		}
		orthogonalize(x, vectors)
		normalize(x)
		var lambda, prev float64
		for iter := 0; iter < maxIter; iter++ {
			apply(y, x)
			for i, v := range x {
				y[i] += shift * v
			}
			orthogonalize(y, vectors)
			lambda = dot(x, y)
			nrm := norm(y)
			if nrm < 1e-300 {
				// Vector annihilated: eigenvalue ≈ 0 in the deflated space.
				break
			}
			for i := range y {
				y[i] /= nrm
			}
			x, y = y, x
			if iter > 0 && math.Abs(lambda-prev) <= tol*math.Max(1, math.Abs(lambda)) {
				break
			}
			prev = lambda
		}
		vectors = append(vectors, x)
		values = append(values, lambda-shift)
	}
	return values, vectors, nil
}

func orthogonalize(x []float64, basis [][]float64) {
	// Two rounds of modified Gram–Schmidt for numerical robustness.
	for round := 0; round < 2; round++ {
		for _, b := range basis {
			d := dot(x, b)
			for i := range x {
				x[i] -= d * b[i]
			}
		}
	}
}

func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func norm(a []float64) float64 { return math.Sqrt(dot(a, a)) }

func normalize(a []float64) {
	n := norm(a)
	if n == 0 {
		return
	}
	for i := range a {
		a[i] /= n
	}
}
