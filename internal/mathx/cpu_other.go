//go:build !amd64

package mathx

func cpuHasAVX2() bool { return false }
