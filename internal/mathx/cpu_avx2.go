//go:build !noavx2

package mathx

// avx2Disabled turns the AVX2 gate off; only the noavx2 build tag sets it.
const avx2Disabled = false
