// Copyright 2010 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package mathx

import (
	"math"
	"runtime"
)

// This file ports math.Exp's amd64 assembly so that many exponentials can
// be taken in one call with math.Exp's exact bits: the E-step's Gaussian
// responsibilities and g₁'s Gaussian terms take K exponentials per
// observation, and one math.Exp call per lane was most of a weather fit.
//
// On amd64, math.Exp is the assembly routine math.archExp (Shibata's
// method, from SLEEF): it takes k = round(x·log₂e), reduces r = (x −
// k·ln 2)/16 in two steps, evaluates a degree-8 Taylor polynomial for
// e^r − 1, squares four times through y ← y·(y+2), adds 1 and scales by
// 2^k. It has two code paths, one with fused multiply-adds (taken when the
// CPU has AVX and FMA) and one with separate SSE2 multiplies and adds,
// whose results differ in the last bit on about one argument in ten.
// exp_amd64.s repeats each path's operations in the same order on packed
// lanes (expQuadsFMA, expQuadsSSE2), and expFMALane and expSSE2Lane below
// do the same one lane at a time in Go — the fused steps through
// math.FMA, which rounds once as VFMADD does. At init, pickExpPath compares
// both ports with math.Exp on expProbes and keeps the one that matches; on
// a mismatch with both, or off amd64 (whose math.Exp is another
// algorithm), ExpTo calls math.Exp for every lane.
//
// The ports cover only the assembly's main path, the arguments
// expFastLo ≤ x ≤ expFastHi: there 2^k is a normal number and neither the
// overflow, the non-finite nor the subnormal branch is taken. Any other
// lane — NaN, ±Inf, an overflow, a result subnormal or 0 — goes to
// math.Exp.
//
// TestExpBitEqual compares ExpTo with math.Exp on ten million random
// arguments and every branch edge, TestExpSSE2PathBitEqual re-runs it with
// the CPU's FMA feature masked so the SSE2 path is checked too, and
// FuzzExp adds random arguments.

// expKernel names the implementation ExpTo runs.
type expKernel uint8

const (
	expStd  expKernel = iota // math.Exp per lane
	expFMA                   // port of math.archExp's FMA path
	expSSE2                  // port of math.archExp's SSE2 path
)

// expPath is the implementation chosen at init.
var expPath = pickExpPath(math.Exp)

// pickExpPath returns the port whose results match ref on every probe, or
// expStd when neither does or the platform's math.Exp is not the amd64
// assembly.
func pickExpPath(ref func(float64) float64) expKernel {
	if runtime.GOARCH != "amd64" {
		return expStd
	}
	for _, p := range []expKernel{expFMA, expSSE2} {
		if probesMatch(p, ref) {
			return p
		}
	}
	return expStd
}

// probesMatch reports whether port p returns ref's bits on every probe,
// first lane by lane in Go and then through its packed kernel. The Go lanes
// go first because they run anywhere (math.FMA falls back to software),
// while the FMA kernel needs AVX and FMA: a match of the FMA lanes means
// math.Exp took its FMA path, which it takes only where the CPU and the OS
// support both.
func probesMatch(p expKernel, ref func(float64) float64) bool {
	for _, x := range expProbes {
		if math.Float64bits(expLane(p, x)) != math.Float64bits(ref(x)) {
			return false
		}
	}
	var dst [len(expProbes)]float64
	if p == expFMA {
		_ = expQuadsFMA(dst[:], expProbes[:])
	} else {
		_ = expQuadsSSE2(dst[:], expProbes[:])
	}
	for i, y := range dst {
		if math.Float64bits(y) != math.Float64bits(ref(expProbes[i])) {
			return false
		}
	}
	return true
}

// expLane is one lane of port p in Go.
func expLane(p expKernel, x float64) float64 {
	switch p {
	case expFMA:
		return expFMALane(x)
	case expSSE2:
		return expSSE2Lane(x)
	}
	return math.Exp(x)
}

// expProbes are the arguments pickExpPath tries: four on which the FMA
// and SSE2 paths of math.archExp return different bits (3.14159, −3.75,
// −250.5 and 300.3; TestExpProbesTellPathsApart checks that they still do),
// 0, both ends of the main path and a few others. A whole number of quads,
// so the packed kernels run on all of them.
var expProbes = [...]float64{
	0, expFastLo, expFastHi, -0.6931471805599453, 3.14159, -3.75,
	-250.5, 300.3, -0.5, -17.25, 88.7, -650.125,
}

// ExpTo sets dst[i] = math.Exp(src[i]) for every i of src, bit for bit.
// dst must be at least as long as src and must not overlap it. On amd64
// the whole quads of src go through the packed port, four to five times
// faster than a math.Exp loop; lanes off its main path and the last
// len(src)%4 lanes call math.Exp.
func ExpTo(dst, src []float64) {
	dst = dst[:len(src)]
	quads := len(src) &^ 3
	onPath := true
	switch expPath {
	case expFMA:
		onPath = expQuadsFMA(dst[:quads], src[:quads])
	case expSSE2:
		onPath = expQuadsSSE2(dst[:quads], src[:quads])
	default:
		quads = 0
	}
	if !onPath {
		for i, x := range src[:quads] {
			if !expFast(x) {
				dst[i] = math.Exp(x)
			}
		}
	}
	for i := quads; i < len(src); i++ {
		dst[i] = math.Exp(src[i])
	}
}

// expFast reports whether x lies on the main path.
func expFast(x float64) bool { return x >= expFastLo && x <= expFastHi }

// The assembly's constants, spelled as it spells them.
const (
	expLog2e = 1.4426950408889634073599246810018920                  // 1/ln 2
	expLn2U  = 0.69314718055966295651160180568695068359375           // upper half of ln 2
	expLn2L  = 0.28235290563031577122588448175013436025525412068e-12 // lower half of ln 2
	expC3    = 1.6666666666666666667e-1                              // 1/3!
	expC4    = 4.1666666666666666667e-2                              // 1/4!
	expC5    = 8.3333333333333333333e-3                              // 1/5!
	expC6    = 1.3888888888888888889e-3                              // 1/6!
	expC7    = 1.9841269841269841270e-4                              // 1/7!
	expC8    = 2.4801587301587301587e-5                              // 1/8!
)

// The main path's argument range. On it k = round(x·log₂e) lies in
// [−1021, 1023], so the biased exponent k+1023 lies in [2, 2046]: the
// assembly neither overflows, underflows nor builds a subnormal scale.
const (
	expFastLo = -708.0
	expFastHi = 709.0
)

// expScale is 2^k for k in the main path's range.
func expScale(k float64) float64 {
	return math.Float64frombits(uint64(int64(k)+1023) << 52)
}

// expFMALane is math.archExp's FMA path on the main range, math.Exp
// elsewhere. k is the assembly's CVTSD2SL under the default
// round-to-nearest-even mode.
func expFMALane(x float64) float64 {
	if !expFast(x) {
		return math.Exp(x)
	}
	k := math.RoundToEven(expLog2e * x)
	r := math.FMA(-k, expLn2U, x)
	r = math.FMA(-k, expLn2L, r)
	r *= 0.0625
	p := math.FMA(expC8, r, expC7)
	p = math.FMA(p, r, expC6)
	p = math.FMA(p, r, expC5)
	p = math.FMA(p, r, expC4)
	p = math.FMA(p, r, expC3)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1)
	y := r * p
	y *= y + 2
	y *= y + 2
	y *= y + 2
	y = math.FMA(y+2, y, 1)
	return y * expScale(k)
}

// expSSE2Lane is math.archExp's SSE2 path on the main range, math.Exp
// elsewhere. Every product is rounded before its sum (the explicit
// float64 conversions forbid a compiler from fusing them).
func expSSE2Lane(x float64) float64 {
	if !expFast(x) {
		return math.Exp(x)
	}
	k := math.RoundToEven(expLog2e * x)
	r := x - float64(k*expLn2U)
	r -= float64(k * expLn2L)
	r *= 0.0625
	p := float64(expC8*r) + expC7
	p = float64(p*r) + expC6
	p = float64(p*r) + expC5
	p = float64(p*r) + expC4
	p = float64(p*r) + expC3
	p = float64(p*r) + 0.5
	p = float64(p*r) + 1
	y := r * p
	y *= y + 2
	y *= y + 2
	y *= y + 2
	y *= y + 2
	y++
	return y * expScale(k)
}
