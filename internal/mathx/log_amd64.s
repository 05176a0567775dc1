// Copyright 2010 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

#include "textflag.h"

// A packed form of math.archLog (math/log_amd64.s): the same operations in
// the same order on every lane, so each lane rounds exactly as the scalar
// assembly does. The kernel walks src eight lanes at a time as two
// independent chains interleaved step by step, then one quad at a time.
// Before computing, it checks that every lane of the octet (or quad) is a
// positive normal finite number; if one is not, it stops there and
// reports how many lanes it wrote (see log.go). A chain holds x in
// register x (reused for s), f1 and then f in f, the exponent k in k, and
// uses a, b and c as scratch.

// Each constant fills 32 bytes, one copy per lane of a YMM register.
#define LANES4(name, val) DATA name<>+0(SB)/8, $val; DATA name<>+8(SB)/8, $val; DATA name<>+16(SB)/8, $val; DATA name<>+24(SB)/8, $val; GLOBL name<>(SB), RODATA, $32

LANES4(logminnorm, 2.2250738585072014e-308) // smallest positive normal
LANES4(logmax, 1.7976931348623157e+308)     // math.MaxFloat64
LANES4(logmant, 0x000FFFFFFFFFFFFF)          // mantissa bits
LANES4(loghalf, 0.5)
LANES4(logmagic, 0x4330000000000000)         // 2^52
LANES4(logkbias, 4503599627371518.0)         // 2^52 + 1022
LANES4(loghsqrt2, 7.07106781186547524401e-01)
LANES4(logone, 1.0)
LANES4(logtwo, 2.0)
LANES4(logl1, 6.666666666666735130e-01)
LANES4(logl2, 3.999999999940941908e-01)
LANES4(logl3, 2.857142874366239149e-01)
LANES4(logl4, 2.222219843214978396e-01)
LANES4(logl5, 1.818357216161805012e-01)
LANES4(logl6, 1.531383769920937332e-01)
LANES4(logl7, 1.479819860511658591e-01)
LANES4(logln2hi, 6.93147180369123816490e-01)
LANES4(logln2lo, 1.90821492927058770002e-10)

// OK: m = (x ≥ smallest normal) & (x ≤ MaxFloat64), ordered and quiet, so
// false for ±0, subnormals, negatives, +Inf and NaN. t is scratch.
#define LOG_OK(x, m, t) \
	VCMPPD  $0x1D, logminnorm<>(SB), x, m; \
	VCMPPD  $0x12, logmax<>(SB), x, t; \
	VANDPD  t, m, m

// FREXP: f1 = the mantissa with the exponent of ½; k = e − 1022 for the
// biased exponent e (x is positive, so e = bits >> 52), converted exactly:
// 2^52 + e − (2^52 + 1022).
#define LOG_FREXP(x, f, k) \
	VANDPD  logmant<>(SB), x, f; \
	VORPD   loghalf<>(SB), f, f; \
	VPSRLQ  $52, x, k; \
	VPOR    logmagic<>(SB), k, k; \
	VSUBPD  logkbias<>(SB), k, k

// FOLD: a = NLT(√2/2, f1) as the assembly's CMPSD computes it; a &= 1;
// k −= a; f1 ×= a + 1; f = f1 − 1.
#define LOG_FOLD(f, k, a) \
	VMOVUPD loghsqrt2<>(SB), a; \
	VCMPPD  $5, f, a, a; \
	VANDPD  logone<>(SB), a, a; \
	VSUBPD  a, k, k; \
	VADDPD  logone<>(SB), a, a; \
	VMULPD  a, f, f; \
	VSUBPD  logone<>(SB), f, f

// POLY: s = f/(2+f) into x; b = R = t1 + t2 with
// t1 = s²·(L1 + s⁴·(L3 + s⁴·(L5 + s⁴·L7))) and
// t2 = s⁴·(L2 + s⁴·(L4 + s⁴·L6)).
#define LOG_POLY(x, f, a, b, c) \
	VADDPD  logtwo<>(SB), f, a; \
	VDIVPD  a, f, x; \
	VMULPD  x, x, b; \
	VMULPD  b, b, c; \
	VMULPD  logl7<>(SB), c, a; \
	VADDPD  logl5<>(SB), a, a; \
	VMULPD  c, a, a; \
	VADDPD  logl3<>(SB), a, a; \
	VMULPD  c, a, a; \
	VADDPD  logl1<>(SB), a, a; \
	VMULPD  a, b, b; \
	VMULPD  logl6<>(SB), c, a; \
	VADDPD  logl4<>(SB), a, a; \
	VMULPD  c, a, a; \
	VADDPD  logl2<>(SB), a, a; \
	VMULPD  a, c, c; \
	VADDPD  c, b, b

// RESULT: hfsq = ½·f·f into a, then
// k = k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f).
#define LOG_RESULT(x, f, k, a, b, c) \
	VMULPD  loghalf<>(SB), f, a; \
	VMULPD  f, a, a; \
	VADDPD  a, b, b; \
	VMULPD  b, x, x; \
	VMULPD  logln2lo<>(SB), k, c; \
	VADDPD  c, x, x; \
	VSUBPD  x, a, a; \
	VSUBPD  f, a, a; \
	VMULPD  logln2hi<>(SB), k, k; \
	VSUBPD  a, k, k

// func logQuads(dst, src []float64) (done int)
// Needs AVX2.
TEXT ·logQuads(SB), NOSPLIT, $0-56
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), DX
	MOVQ    SI, R8
	SHRQ    $2, DX
logoctet:
	CMPQ    DX, $2
	JLT     logquad
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y6
	LOG_OK(Y0, Y12, Y13)
	LOG_OK(Y6, Y14, Y15)
	VANDPD  Y14, Y12, Y12
	VMOVMSKPD Y12, AX
	CMPQ    AX, $15
	JNE     logquad
	LOG_FREXP(Y0, Y1, Y2)
	LOG_FREXP(Y6, Y7, Y8)
	LOG_FOLD(Y1, Y2, Y3)
	LOG_FOLD(Y7, Y8, Y9)
	LOG_POLY(Y0, Y1, Y3, Y4, Y5)
	LOG_POLY(Y6, Y7, Y9, Y10, Y11)
	LOG_RESULT(Y0, Y1, Y2, Y3, Y4, Y5)
	LOG_RESULT(Y6, Y7, Y8, Y9, Y10, Y11)
	VMOVUPD Y2, 0(DI)
	VMOVUPD Y8, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $2, DX
	JMP     logoctet
logquad:
	TESTQ   DX, DX
	JZ      logdone
	VMOVUPD 0(SI), Y0
	LOG_OK(Y0, Y12, Y13)
	VMOVMSKPD Y12, AX
	CMPQ    AX, $15
	JNE     logdone
	LOG_FREXP(Y0, Y1, Y2)
	LOG_FOLD(Y1, Y2, Y3)
	LOG_POLY(Y0, Y1, Y3, Y4, Y5)
	LOG_RESULT(Y0, Y1, Y2, Y3, Y4, Y5)
	VMOVUPD Y2, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    DX
	JMP     logquad
logdone:
	SUBQ    R8, SI
	SHRQ    $3, SI
	MOVQ    SI, done+48(FP)
	VZEROUPPER
	RET
