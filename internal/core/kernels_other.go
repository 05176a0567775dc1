//go:build !amd64

package core

import "genclus/internal/hin"

// Off amd64 mathx.AVX2 is false and packedKernels never routes here.

func linkRowsK4(rows, tf, gamma []float64, edges []hin.Edge, start []int) {
	panic("core: packed kernels need amd64")
}

func catRowsK4(rows, st, betaT, th []float64, terms [][]hin.TermCount) {
	panic("core: packed kernels need amd64")
}

func normalizeRowsK4(dst, rows, old []float64, eps float64) {
	panic("core: packed kernels need amd64")
}
