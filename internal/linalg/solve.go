package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky pivot is non-positive.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// ErrSingular is returned when an LU factorization meets an (effectively)
// zero pivot, i.e. the system has no unique solution.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// SolveSPDInPlace solves A·x = b for a symmetric positive definite A by the
// Cholesky factorization A = L·Lᵀ. It reads only a's lower triangle and
// overwrites it with L, leaving the strict upper triangle as it was; each
// a(i, j) is read before L(i, j) takes its slot. x may alias b. It
// allocates nothing.
//
// GenClus's Newton step solves H·Δ = ∇ where H is symmetric negative
// definite (paper Appendix B); solving (−H)·Δ = −∇ by Cholesky is twice as
// fast as LU and fails loudly (ErrNotPositiveDefinite) if numerical error
// ever destroys definiteness — a built-in sanity check on the Hessian.
//
// Mismatched dimensions are a programmer error and panic.
func SolveSPDInPlace(a *Matrix, b, x []float64) error {
	n := a.Rows
	if a.Cols != n || len(b) != n || len(x) != n {
		panic("linalg: SolveSPDInPlace dimension mismatch")
	}
	l := a.Data
	for j := 0; j < n; j++ {
		// Diagonal entry.
		d := l[j*n+j]
		for k := 0; k < j; k++ {
			ljk := l[j*n+k]
			d -= ljk * ljk
		}
		if !(d > 0) || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l[j*n+j] = ljj
		// Column below the diagonal.
		for i := j + 1; i < n; i++ {
			s := l[i*n+j]
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			l[i*n+j] = s / ljj
		}
	}
	// Forward substitution L·y = b, with y kept in x.
	for i := 0; i < n; i++ {
		s := b[i]
		row := l[i*n : (i+1)*n]
		for k := 0; k < i; k++ {
			s -= row[k] * x[k]
		}
		x[i] = s / row[i]
	}
	// Back substitution Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	return nil
}

// SolveInPlace solves A·x = b for a square A by Doolittle LU elimination
// with partial (row) pivoting, P·A = L·U. It overwrites a with the factors
// (L's unit diagonal implicit) and piv with the row permutation: row i of
// the factors is row piv[i] of A. x must not alias b. It allocates nothing.
//
// Mismatched dimensions are a programmer error and panic.
func SolveInPlace(a *Matrix, piv []int, b, x []float64) error {
	n := a.Rows
	if a.Cols != n || len(piv) != n || len(b) != n || len(x) != n {
		panic("linalg: SolveInPlace dimension mismatch")
	}
	lu := a.Data
	for i := range piv {
		piv[i] = i
	}
	for col := 0; col < n; col++ {
		// Find pivot.
		p := col
		maxAbs := math.Abs(lu[col*n+col])
		for r := col + 1; r < n; r++ {
			if a := math.Abs(lu[r*n+col]); a > maxAbs {
				maxAbs, p = a, r
			}
		}
		if maxAbs < 1e-300 {
			return ErrSingular
		}
		rc := lu[col*n : (col+1)*n]
		if p != col {
			rp := lu[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				rp[j], rc[j] = rc[j], rp[j]
			}
			piv[p], piv[col] = piv[col], piv[p]
		}
		// Eliminate below the pivot.
		pivVal := rc[col]
		for r := col + 1; r < n; r++ {
			factor := lu[r*n+col] / pivVal
			lu[r*n+col] = factor
			if factor == 0 {
				continue
			}
			rr := lu[r*n : (r+1)*n]
			for j := col + 1; j < n; j++ {
				rr[j] -= factor * rc[j]
			}
		}
	}
	// Apply the permutation.
	for i := 0; i < n; i++ {
		x[i] = b[piv[i]]
	}
	// Forward substitution (L has implicit unit diagonal).
	for i := 1; i < n; i++ {
		row := lu[i*n : (i+1)*n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := lu[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return nil
}
