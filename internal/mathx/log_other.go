//go:build !amd64

package mathx

// Off amd64 pickLogPath never selects the packed kernel; this keeps the
// package building.
func logQuads(dst, src []float64) (done int) { return 0 }
