package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// residualOK reports whether A·x matches b to a relative 1e-8.
func residualOK(a *Matrix, x, b []float64) bool {
	ax := mulVec(a, x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-8*math.Max(1, math.Abs(b[i])) {
			return false
		}
	}
	return true
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4, 2], [2, 3]] has L = [[2, 0], [1, √2]]; A·(1, 1) = (6, 5).
	a := fromRows([][]float64{{4, 2}, {2, 3}})
	x := make([]float64, 2)
	if err := SolveSPDInPlace(a, []float64{6, 5}, x); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.At(0, 0)-2) > 1e-12 || math.Abs(a.At(1, 0)-1) > 1e-12 ||
		math.Abs(a.At(1, 1)-math.Sqrt2) > 1e-12 {
		t.Errorf("factor = %v", a.Data)
	}
	if a.At(0, 1) != 2 {
		t.Errorf("strict upper triangle overwritten: %v", a.At(0, 1))
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-1) > 1e-12 {
		t.Errorf("x = %v, want (1, 1)", x)
	}
}

func TestCholeskySolveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := randomSPD(rng, n)
		b := randomVec(rng, n)
		x := make([]float64, n)
		if err := SolveSPDInPlace(clone(a), b, x); err != nil {
			return false
		}
		// Solving with x aliasing b gives the same bits.
		xb := append([]float64(nil), b...)
		if err := SolveSPDInPlace(clone(a), xb, xb); err != nil {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(xb[i]) {
				return false
			}
		}
		return residualOK(a, x, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		a := randomSPD(rng, n)
		b := randomVec(rng, n)
		xc := make([]float64, n)
		if err := SolveSPDInPlace(clone(a), b, xc); err != nil {
			t.Fatal(err)
		}
		xl := make([]float64, n)
		if err := SolveInPlace(clone(a), make([]int, n), b, xl); err != nil {
			t.Fatal(err)
		}
		for i := range xc {
			if math.Abs(xc[i]-xl[i]) > 1e-8*math.Max(1, math.Abs(xl[i])) {
				t.Fatalf("Cholesky and LU disagree at %d: %v vs %v", i, xc[i], xl[i])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	x := make([]float64, 2)
	b := []float64{1, 1}
	for _, c := range []struct {
		name string
		rows [][]float64
	}{
		{"negative definite", [][]float64{{-1, 0}, {0, -2}}},
		{"indefinite", [][]float64{{1, 2}, {2, 1}}},
		{"singular PSD", [][]float64{{1, 1}, {1, 1}}},
		{"NaN", [][]float64{{1, 0}, {0, math.NaN()}}},
	} {
		if err := SolveSPDInPlace(fromRows(c.rows), b, x); !errors.Is(err, ErrNotPositiveDefinite) {
			t.Errorf("%s: err = %v, want ErrNotPositiveDefinite", c.name, err)
		}
	}
}

func TestCholeskySolveWrongRHS(t *testing.T) {
	a := identity(3)
	mustPanic(t, "short b", func() { _ = SolveSPDInPlace(a, []float64{1}, make([]float64, 3)) })
	mustPanic(t, "short x", func() { _ = SolveSPDInPlace(a, make([]float64, 3), []float64{1}) })
}

func TestLUSolveKnown(t *testing.T) {
	rows := [][]float64{
		{2, 1, 1},
		{1, 3, 2},
		{1, 0, 0},
	}
	b := []float64{4, 5, 6}
	x := make([]float64, 3)
	if err := SolveInPlace(fromRows(rows), make([]int, 3), b, x); err != nil {
		t.Fatal(err)
	}
	// Verify A·x = b.
	ax := mulVec(fromRows(rows), x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-10 {
			t.Fatalf("A·x = %v, want %v", ax, b)
		}
	}
}

func TestLUSolveProperty(t *testing.T) {
	// For random well-conditioned SPD systems, the residual must be tiny.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(9)
		a := randomSPD(rng, n)
		b := randomVec(rng, n)
		x := make([]float64, n)
		if err := SolveInPlace(clone(a), make([]int, n), b, x); err != nil {
			return false
		}
		return residualOK(a, x, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLUSingular(t *testing.T) {
	rank1 := fromRows([][]float64{
		{1, 2},
		{2, 4}, // rank 1
	})
	if err := SolveInPlace(rank1, make([]int, 2), []float64{1, 2}, make([]float64, 2)); !errors.Is(err, ErrSingular) {
		t.Errorf("rank-deficient matrix: err = %v, want ErrSingular", err)
	}
	if err := SolveInPlace(NewMatrix(3, 3), make([]int, 3), make([]float64, 3), make([]float64, 3)); !errors.Is(err, ErrSingular) {
		t.Errorf("zero matrix: err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	mustPanic(t, "LU", func() { _ = SolveInPlace(a, make([]int, 2), make([]float64, 2), make([]float64, 2)) })
	mustPanic(t, "Cholesky", func() { _ = SolveSPDInPlace(a, make([]float64, 2), make([]float64, 2)) })
}

func TestLUSolveWrongRHS(t *testing.T) {
	a := identity(3)
	three := func() []float64 { return make([]float64, 3) }
	mustPanic(t, "short b", func() { _ = SolveInPlace(a, make([]int, 3), []float64{1, 2}, three()) })
	mustPanic(t, "short x", func() { _ = SolveInPlace(a, make([]int, 3), three(), []float64{1, 2}) })
	mustPanic(t, "short piv", func() { _ = SolveInPlace(a, make([]int, 2), three(), three()) })
}

// TestDeterminant checks the LU factors SolveInPlace leaves behind: the
// product of U's diagonal times the permutation's sign is det A.
func TestDeterminant(t *testing.T) {
	det := func(rows [][]float64) float64 {
		n := len(rows)
		a, piv := fromRows(rows), make([]int, n)
		if err := SolveInPlace(a, piv, make([]float64, n), make([]float64, n)); err != nil {
			t.Fatal(err)
		}
		d := 1.0
		for i := 0; i < n; i++ {
			d *= a.At(i, i)
			for j := i + 1; j < n; j++ {
				if piv[j] < piv[i] {
					d = -d // one inversion of the permutation
				}
			}
		}
		return d
	}
	// Pivoting swaps the rows: L = [[1, 0], [3/4, 1]], U = [[4, 6], [0, 3.5]].
	if got := det([][]float64{{3, 8}, {4, 6}}); math.Abs(got-(-14)) > 1e-10 {
		t.Errorf("det = %v, want -14", got)
	}
	if got := det([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}); got != 1 {
		t.Errorf("det(I) = %v, want 1", got)
	}
}

// TestSolversZeroAlloc: both solvers work only in the caller's storage.
func TestSolversZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randomSPD(rng, 6)
	w := NewMatrix(6, 6)
	piv := make([]int, 6)
	b := randomVec(rng, 6)
	x := make([]float64, 6)
	for name, f := range map[string]func(){
		"SolveSPDInPlace": func() { copy(w.Data, a.Data); _ = SolveSPDInPlace(w, b, x) },
		"SolveInPlace":    func() { copy(w.Data, a.Data); _ = SolveInPlace(w, piv, b, x) },
	} {
		if allocs := testing.AllocsPerRun(10, f); allocs != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, allocs)
		}
	}
}

func BenchmarkCholeskySolve8(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	a := randomSPD(rng, 8)
	w := NewMatrix(8, 8)
	rhs := randomVec(rng, 8)
	x := make([]float64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(w.Data, a.Data)
		if err := SolveSPDInPlace(w, rhs, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUSolve8(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := randomSPD(rng, 8)
	w := NewMatrix(8, 8)
	piv := make([]int, 8)
	rhs := randomVec(rng, 8)
	x := make([]float64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(w.Data, a.Data)
		if err := SolveInPlace(w, piv, rhs, x); err != nil {
			b.Fatal(err)
		}
	}
}
