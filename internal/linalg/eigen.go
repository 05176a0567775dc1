package linalg

import (
	"fmt"
	"math"
)

// TopEigen computes the k algebraically-largest eigenpairs of a symmetric
// matrix via shifted power iteration with Hotelling deflation. The shift
// (a Gershgorin bound) makes the matrix positive definite so the dominant
// eigenvalue of the shifted matrix corresponds to the algebraically largest
// of the original — spectral clustering needs largest, not largest-magnitude.
//
// rngSeed seeds the deterministic start vectors. Accuracy is adequate for
// clustering embeddings (the downstream k-means only needs the invariant
// subspace, not digits of λ).
func TopEigen(a *Matrix, k int, rngSeed int64) (values []float64, vectors *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("linalg: TopEigen needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if k <= 0 || k > n {
		return nil, nil, fmt.Errorf("linalg: TopEigen k=%d out of range 1..%d", k, n)
	}
	// Gershgorin shift: shift = max_i Σ_j |a_ij| bounds |λ| so A + shift·I ⪰ 0.
	var shift float64
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			rowSum += math.Abs(a.At(i, j))
		}
		if rowSum > shift {
			shift = rowSum
		}
	}
	shifted := a.Clone()
	for i := 0; i < n; i++ {
		shifted.Add(i, i, shift)
	}

	values = make([]float64, 0, k)
	vectors = NewMatrix(n, k)
	basis := make([][]float64, 0, k)

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
		x := make([]float64, n)
		for i := range x {
			x[i] = nextRand() - 0.5
		}
		orthogonalize(x, basis)
		normalize(x)
		var lambda, prev float64
		for iter := 0; iter < maxIter; iter++ {
			y := shifted.MulVec(x)
			orthogonalize(y, basis)
			lambda = dot(x, y)
			nrm := norm(y)
			if nrm < 1e-300 {
				// Vector annihilated: eigenvalue ≈ 0 in the deflated space.
				break
			}
			for i := range y {
				y[i] /= nrm
			}
			if iter > 0 && math.Abs(lambda-prev) <= tol*math.Max(1, math.Abs(lambda)) {
				x = y
				break
			}
			prev = lambda
			x = y
		}
		basis = append(basis, x)
		values = append(values, lambda-shift)
		for i := 0; i < n; i++ {
			vectors.Set(i, comp, x[i])
		}
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
