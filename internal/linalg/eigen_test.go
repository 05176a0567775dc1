package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// eigenSym computes the full eigen-decomposition of a symmetric matrix using
// the cyclic Jacobi rotation method: A = V·diag(λ)·Vᵀ with orthonormal V.
// Eigenpairs are returned sorted by descending eigenvalue.
//
// Jacobi is O(n³) per sweep but unconditionally stable and exact to machine
// precision after convergence, which makes it the reference TopEigen (power
// iteration with deflation) is checked against.
func eigenSym(a *Matrix) (values []float64, vectors *Matrix, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("linalg: eigenSym needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if !isSymmetric(a, 1e-9*math.Max(1, maxAbs(a))) {
		return nil, nil, fmt.Errorf("linalg: eigenSym needs a symmetric matrix")
	}
	n := a.Rows
	w := clone(a)
	v := identity(n)

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Off-diagonal Frobenius norm.
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += 2 * w.At(i, j) * w.At(i, j)
			}
		}
		if math.Sqrt(off) < 1e-12*math.Max(1, maxAbs(w)) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				// Rotation angle.
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply rotation to rows/cols p, q of w.
				for i := 0; i < n; i++ {
					wip := w.At(i, p)
					wiq := w.At(i, q)
					w.Set(i, p, c*wip-s*wiq)
					w.Set(i, q, s*wip+c*wiq)
				}
				for i := 0; i < n; i++ {
					wpi := w.At(p, i)
					wqi := w.At(q, i)
					w.Set(p, i, c*wpi-s*wqi)
					w.Set(q, i, s*wpi+c*wqi)
				}
				// Accumulate eigenvectors.
				for i := 0; i < n; i++ {
					vip := v.At(i, p)
					viq := v.At(i, q)
					v.Set(i, p, c*vip-s*viq)
					v.Set(i, q, s*vip+c*viq)
				}
			}
		}
	}

	values = make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = w.At(i, i)
	}
	// Sort descending, permuting eigenvector columns accordingly.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return values[idx[i]] > values[idx[j]] })
	sortedVals := make([]float64, n)
	sortedVecs := NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = values[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sortedVals, sortedVecs, nil
}

// identity returns the n×n identity matrix.
func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// isSymmetric reports whether m is square and symmetric within tol.
func isSymmetric(m *Matrix, tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

func TestEigenSymDiagonal(t *testing.T) {
	d := fromRows([][]float64{
		{3, 0, 0},
		{0, -1, 0},
		{0, 0, 2},
	})
	vals, vecs, err := eigenSym(d)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -1}
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-10 {
			t.Errorf("eigenvalue %d = %v, want %v", i, vals[i], w)
		}
	}
	// Eigenvectors of a diagonal matrix are (signed) standard basis vectors.
	for c := 0; c < 3; c++ {
		var nnz int
		for r := 0; r < 3; r++ {
			if math.Abs(vecs.At(r, c)) > 1e-8 {
				nnz++
			}
		}
		if nnz != 1 {
			t.Errorf("eigenvector %d not axis-aligned", c)
		}
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(8)
		// Random symmetric matrix.
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs, err := eigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		// V must be orthonormal: VᵀV = I.
		vtv := transposeMul(vecs, vecs)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(vtv.At(i, j)-want) > 1e-8 {
					t.Fatalf("VᵀV not identity at (%d,%d): %v", i, j, vtv.At(i, j))
				}
			}
		}
		// A ≈ V·diag(λ)·Vᵀ.
		resid := clone(a)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				for k := 0; k < n; k++ {
					resid.Add(i, j, -vecs.At(i, k)*vals[k]*vecs.At(j, k))
				}
			}
		}
		if maxAbs(resid) > 1e-8*math.Max(1, maxAbs(a)) {
			t.Fatalf("reconstruction error %v", maxAbs(resid))
		}
		// Sorted descending.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-10 {
				t.Fatal("eigenvalues not sorted descending")
			}
		}
	}
}

func TestEigenSymRejectsAsymmetric(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	if _, _, err := eigenSym(a); err == nil {
		t.Error("expected error for asymmetric input")
	}
	if _, _, err := eigenSym(NewMatrix(2, 3)); err == nil {
		t.Error("expected error for non-square input")
	}
}

// denseApply returns the operator y ← a·x that TopEigen takes.
func denseApply(a *Matrix) func(y, x []float64) {
	return func(y, x []float64) { copy(y, mulVec(a, x)) }
}

// gershgorin returns max_i Σ_j |a_ij|, a bound on every |λ| of a.
func gershgorin(a *Matrix) float64 {
	var shift float64
	for i := 0; i < a.Rows; i++ {
		var rowSum float64
		for j := 0; j < a.Cols; j++ {
			rowSum += math.Abs(a.At(i, j))
		}
		shift = math.Max(shift, rowSum)
	}
	return shift
}

func TestTopEigenMatchesJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		n := 6 + rng.Intn(10)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		full, _, err := eigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		k := 3
		vals, vecs, err := TopEigen(n, k, gershgorin(a), denseApply(a), int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			if math.Abs(vals[i]-full[i]) > 1e-5*math.Max(1, math.Abs(full[i])) {
				t.Errorf("trial %d: top eigenvalue %d = %v, Jacobi %v", trial, i, vals[i], full[i])
			}
			// Residual ‖A·v − λ·v‖ must be small.
			v := vecs[i]
			av := mulVec(a, v)
			var res float64
			for r := 0; r < n; r++ {
				d := av[r] - vals[i]*v[r]
				res += d * d
			}
			if math.Sqrt(res) > 1e-4*math.Max(1, math.Abs(vals[i])) {
				t.Errorf("trial %d: eigenpair %d residual %v", trial, i, math.Sqrt(res))
			}
		}
	}
}

func TestTopEigenArgValidation(t *testing.T) {
	a := identity(3)
	if _, _, err := TopEigen(3, 0, 1, denseApply(a), 1); err == nil {
		t.Error("k=0 should error")
	}
	if _, _, err := TopEigen(3, 4, 1, denseApply(a), 1); err == nil {
		t.Error("k>n should error")
	}
}

func TestTopEigenOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 20
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	_, vecs, err := TopEigen(n, 4, gershgorin(a), denseApply(a), 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if g := dot(vecs[i], vecs[j]); math.Abs(g-want) > 1e-6 {
				t.Fatalf("top eigenvectors not orthonormal at (%d,%d): %v", i, j, g)
			}
		}
	}
}
