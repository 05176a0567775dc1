//go:build !amd64

package mathx

// Off amd64 pickExpPath never selects a port, so these lane-by-lane forms
// only keep the package building.

func expQuadsFMA(dst, src []float64) (onPath bool) {
	for i := range src[:len(src)&^3] {
		dst[i] = expFMALane(src[i])
	}
	return true
}

func expQuadsSSE2(dst, src []float64) (onPath bool) {
	for i := range src[:len(src)&^3] {
		dst[i] = expSSE2Lane(src[i])
	}
	return true
}
