package mathx

// expQuadsFMA sets dst[i] to math.archExp's FMA-path result for src[i],
// for the len(src)/4 whole quads of src, and reports whether every one of
// those lanes was on the main path (a lane off it comes out meaningless).
// It needs AVX and FMA, and len(dst) ≥ len(src).
//
//go:noescape
func expQuadsFMA(dst, src []float64) (onPath bool)

// expQuadsSSE2 is expQuadsFMA for the SSE2 path.
//
//go:noescape
func expQuadsSSE2(dst, src []float64) (onPath bool)
