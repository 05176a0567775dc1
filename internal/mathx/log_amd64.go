package mathx

// logQuads sets dst[i] to math.archLog's result for src[i], quad by quad
// over the len(src)/4 whole quads of src, and stops before the first quad
// with a lane outside the positive normal finite range, leaving that quad
// of dst unwritten. It returns the number of lanes written, a multiple of
// 4. It needs AVX2 and len(dst) ≥ len(src); dst may be src.
//
//go:noescape
func logQuads(dst, src []float64) (done int)
