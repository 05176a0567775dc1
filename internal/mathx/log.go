// Copyright 2010 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package mathx

import (
	"math"
	"runtime"
)

// This file ports math.Log's amd64 assembly to packed lanes, so that many
// logarithms can be taken in one call with math.Log's exact bits: g₁'s
// categorical terms take one per observed term, and g₁'s edge terms and
// the strength statistics take K per object.
//
// On amd64, math.Log is the assembly routine math.archLog, one SSE2 path
// with no fused multiply-adds: it splits x into f1·2^k by bit masks
// (f1 in [½, 1)), folds f1 ≤ √2/2 into [√2/2, √2) through a CMPSD NLT
// mask (k −= 1, f1 ×= 2), sets f = f1 − 1 and s = f/(2+f), evaluates the
// two L-polynomials in s² and s⁴, and returns
// k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f) with hfsq = ½·f·f.
// log_amd64.s repeats those operations in the same order on four lanes of
// a YMM register, so each lane rounds exactly as the scalar assembly does;
// the exponent k, which the assembly converts from an int32 with
// CVTSL2SD, is built exactly by subtracting 2^52 + 1022 from the double
// whose mantissa holds the biased exponent.
//
// The port covers the positive normal finite arguments. A quad with any
// other lane — ±0, a subnormal, a negative, ±Inf or NaN — and the last
// len(src)%4 lanes go to math.Log. The packed kernel needs AVX2 (the
// gate in cpu.go); at init pickLogPath also compares it with math.Log on
// logProbes, and without AVX2, on a mismatch or off amd64 (whose math.Log
// is another algorithm) LogTo calls math.Log for every lane.
//
// TestLogToBitEqual compares LogTo with math.Log on ten million random
// lanes and every branch edge, TestLogToFallback checks the math.Log
// path, and FuzzLogTo adds random arguments.

// logPacked reports whether LogTo runs the packed kernel; tests clear it
// to run the math.Log path.
var logPacked = pickLogPath(math.Log)

// pickLogPath reports whether the packed kernel may run and returns ref's
// bits on every probe.
func pickLogPath(ref func(float64) float64) bool {
	if runtime.GOARCH != "amd64" || !hasAVX2 {
		return false
	}
	var dst [len(logProbes)]float64
	if logQuads(dst[:], logProbes[:]) != len(logProbes) {
		return false
	}
	for i, y := range dst {
		if math.Float64bits(y) != math.Float64bits(ref(logProbes[i])) {
			return false
		}
	}
	return true
}

// logProbes are the arguments pickLogPath tries: both sides of the fold at
// √2/2 and 1, the ends of the covered range, and a few others. A whole
// number of quads, all covered, so the kernel runs on every one.
var logProbes = [...]float64{
	1, 2, 0.5, math.E,
	0.7071067811865475, 0.7071067811865476, 1.4142135623730951, 1.4142135623730950,
	0x1p-1022, math.MaxFloat64, 1e-300, 3.5e7,
}

// LogTo sets dst[i] = math.Log(src[i]) for every i of src, bit for bit.
// dst must be at least as long as src, and either be src itself
// (dst[i] = log(dst[i]) in place) or not overlap it. With AVX2 the whole
// quads of src go through the packed port, four to five times faster than
// a math.Log loop; quads with a lane outside the positive normal finite
// range and the last len(src)%4 lanes call math.Log.
func LogTo(dst, src []float64) {
	dst = dst[:len(src)]
	i := 0
	if logPacked {
		quads := len(src) &^ 3
		for i < quads {
			i += logQuads(dst[i:quads], src[i:quads])
			if i == quads {
				break
			}
			// The quad at i has a lane the kernel does not cover; it
			// left the quad unwritten, so src is intact even in place.
			for j := i; j < i+4; j++ {
				dst[j] = math.Log(src[j])
			}
			i += 4
		}
	}
	for ; i < len(src); i++ {
		dst[i] = math.Log(src[i])
	}
}
