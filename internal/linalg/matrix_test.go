package linalg

import (
	"math"
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

// mulVec returns m·x as a new vector: the dense product the matrix-free
// eigensolver and the solvers are checked against.
func mulVec(m *Matrix, x []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := range out {
		var s float64
		for j, v := range m.Data[i*m.Cols : (i+1)*m.Cols] {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// clone returns a deep copy of m.
func clone(m *Matrix) *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// maxAbs returns the largest absolute entry of m.
func maxAbs(m *Matrix) float64 {
	var mx float64
	for _, v := range m.Data {
		mx = math.Max(mx, math.Abs(v))
	}
	return mx
}

func TestMulVec(t *testing.T) {
	a := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := mulVec(a, []float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("mulVec = %v", got)
	}
}

func TestAddSubScale(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	a.Add(0, 1, 3)
	if a.At(0, 1) != 5 {
		t.Fatalf("Add: At(0, 1) = %v, want 5", a.At(0, 1))
	}
	sc := clone(a).Scale(2)
	if sc.At(1, 1) != 8 || a.At(1, 1) != 4 {
		t.Fatal("Scale wrong or not in place")
	}
	if maxAbs(sc) != 10 {
		t.Fatalf("maxAbs = %v, want 10", maxAbs(sc))
	}
}
