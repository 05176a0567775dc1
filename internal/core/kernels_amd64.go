package core

import (
	"unsafe"

	"genclus/internal/hin"
)

// The AVX2 kernels of kernels_amd64.s. Each runs one E-step pass of the
// Go K=4 kernels over a whole chunk, with the same operations in the same
// order on packed lanes, so its results are the Go kernels' bits
// (TestPackedKernelsMatchGo, TestKernelSpecializationsBitwiseIdentical).
// They need AVX2 (mathx.AVX2) and check no bounds: the pass functions in
// kernels.go check every panel's length against the network before
// calling them, and the indices they load from the network — edge
// endpoints and relation ids, term ids, CSR offsets — were checked
// against it when hin built it.

// linkRowsK4 is linkRowK4 over every row of a chunk: row v of rows
// (len(start)−1 rows of 4) walks edges[start[v]:start[v+1]]. tf is the flat
// Θ_{t−1} panel (|V|·4) and gamma has one strength per relation.
//
//go:noescape
func linkRowsK4(rows, tf, gamma []float64, edges []hin.Edge, start []int)

// catRowsK4 is scoreCatAttrK4 over every row of a chunk: row v of rows
// scores terms[v] under Θ_{t−1} row v of th (4 floats per row), adding the
// M-step statistics into st. betaT and st are term-major, vocabulary×4.
//
//go:noescape
func catRowsK4(rows, st, betaT, th []float64, terms [][]hin.TermCount)

// normalizeRowsK4 is normalizeRowK4 over every row of a chunk, writing
// dst's rows and copying old's row where normalizeRowK4 reports false.
// dst, rows and old have the same length, a multiple of 4.
//
//go:noescape
func normalizeRowsK4(dst, rows, old []float64, eps float64)

// The kernels read hin.Edge (From, To, Rel, Weight) and hin.TermCount
// (Term, Count) at these offsets and strides, and [][]T slice headers as
// three words; a layout change fails to compile here.
var (
	_ = [1]struct{}{}[unsafe.Sizeof(hin.Edge{})-32]
	_ = [1]struct{}{}[unsafe.Offsetof(hin.Edge{}.To)-8]
	_ = [1]struct{}{}[unsafe.Offsetof(hin.Edge{}.Rel)-16]
	_ = [1]struct{}{}[unsafe.Offsetof(hin.Edge{}.Weight)-24]
	_ = [1]struct{}{}[unsafe.Sizeof(hin.TermCount{})-16]
	_ = [1]struct{}{}[unsafe.Offsetof(hin.TermCount{}.Count)-8]
	_ = [1]struct{}{}[unsafe.Sizeof([]hin.TermCount{})-24]
)
