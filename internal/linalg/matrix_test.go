package linalg

import (
	"math/rand"
	"testing"
)

// fromRows builds a matrix from equal-length rows.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, row := range rows {
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], row)
	}
	return m
}

// transposeMul returns aᵀ·b.
func transposeMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Cols, b.Cols)
	for k := 0; k < a.Rows; k++ {
		for i := 0; i < a.Cols; i++ {
			for j := 0; j < b.Cols; j++ {
				out.Add(i, j, a.At(k, i)*b.At(k, j))
			}
		}
	}
	return out
}

func randomMatrix(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randomSPD returns a well-conditioned symmetric positive definite matrix
// A = BᵀB + n·I.
func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := randomMatrix(rng, n)
	a := transposeMul(b, b)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

func TestMulVec(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestAddSubScale(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{4, 3}, {2, 1}})
	sum := a.AddMatrix(b)
	for _, v := range sum.Data {
		if v != 5 {
			t.Fatal("AddMatrix wrong")
		}
	}
	if a.At(0, 0) != 1 {
		t.Fatal("AddMatrix modified its receiver")
	}
	sc := a.Clone().Scale(2)
	if sc.At(1, 1) != 8 || a.At(1, 1) != 4 {
		t.Fatal("Clone or Scale wrong")
	}
	if sc.MaxAbs() != 8 {
		t.Fatalf("MaxAbs = %v, want 8", sc.MaxAbs())
	}
}
