// Package linalg is a small linear-algebra substrate built for the two
// numeric kernels this reproduction needs:
//
//   - solving the symmetric |R|×|R| Newton system H·Δ = ∇ in GenClus's
//     link-strength learning step (paper §4.2), in place and without
//     allocating, and
//   - eigen-decompositions for the SpectralCombine baseline (Shiga et al.
//     KDD'07 style): a matrix-free power-iteration-with-deflation solver for
//     the large similarity matrices the weather experiments produce, which
//     are applied as operators and never stored.
//
// The module is stdlib-only, so everything here is written from scratch.
package linalg

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}
