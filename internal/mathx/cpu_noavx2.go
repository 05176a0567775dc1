//go:build noavx2

package mathx

// avx2Disabled turns the AVX2 gate off: a noavx2 build runs the code a
// host without AVX2 runs.
const avx2Disabled = true
