// Copyright 2010 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

#include "textflag.h"

// Packed forms of the two paths of math.archExp (math/exp_amd64.s): the
// same operations in the same order on every lane, so each lane rounds
// exactly as the scalar assembly does. Both kernels walk src eight lanes
// at a time, then one last quad, as independent chains interleaved step
// by step so the core overlaps their latencies. A chain holds its lanes in
// a vector register v, with a scratch register p and k, the lanes' int32
// exponents. Before reducing, each chain ANDs "expFastLo ≤ x ≤ expFastHi"
// (false for NaN) into the mask in X7/Y7, and the kernels report whether
// every lane was on the main path: a lane off it comes out meaningless and
// the caller recomputes it with math.Exp (see exp.go).

// Each constant fills 32 bytes, one copy per lane of a YMM register; the
// SSE2 kernel reads the low 16. The linker aligns a 32-byte symbol to 32
// bytes, beyond the 16 SSE2's packed memory operands require.
#define LANES4(name, val) DATA name<>+0(SB)/8, $val; DATA name<>+8(SB)/8, $val; DATA name<>+16(SB)/8, $val; DATA name<>+24(SB)/8, $val; GLOBL name<>(SB), RODATA, $32

LANES4(explo, -708.0) // expFastLo
LANES4(exphi, 709.0)  // expFastHi
LANES4(explog2e, 1.4426950408889634073599246810018920)
LANES4(expln2u, 0.69314718055966295651160180568695068359375)
LANES4(expln2l, 0.28235290563031577122588448175013436025525412068e-12)
LANES4(expsixteenth, 0.0625)
LANES4(expc8, 2.4801587301587301587e-5)
LANES4(expc7, 1.9841269841269841270e-4)
LANES4(expc6, 1.3888888888888888889e-3)
LANES4(expc5, 8.3333333333333333333e-3)
LANES4(expc4, 4.1666666666666666667e-2)
LANES4(expc3, 1.6666666666666666667e-1)
LANES4(exphalf, 0.5)
LANES4(expone, 1.0)
LANES4(exptwo, 2.0)

// The exponent bias, one per int32 exponent CVTPD2DQ packs into k.
DATA expbias<>+0(SB)/4, $0x3FF
DATA expbias<>+4(SB)/4, $0x3FF
DATA expbias<>+8(SB)/4, $0x3FF
DATA expbias<>+12(SB)/4, $0x3FF
GLOBL expbias<>(SB), RODATA, $16

// FMA path: four lanes per YMM register. CHECK: Y7 &= (x ≥ lo) & (x ≤ hi),
// ordered and quiet.
#define FMA_CHECK(v) \
	VCMPPD  $0x1D, explo<>(SB), v, Y15; \
	VANDPD  Y15, Y7, Y7; \
	VCMPPD  $0x12, exphi<>(SB), v, Y15; \
	VANDPD  Y15, Y7, Y7

// REDUCE: k = round(x·log₂e) as CVTSD2SL rounds, then
// r = (x − k·ln2U − k·ln2L)/16 with both subtractions fused.
#define FMA_REDUCE(v, p, k) \
	VMULPD  explog2e<>(SB), v, p; \
	VCVTPD2DQY p, k; \
	VCVTDQ2PD k, p; \
	VFNMADD231PD expln2u<>(SB), p, v; \
	VFNMADD231PD expln2l<>(SB), p, v; \
	VMULPD  expsixteenth<>(SB), v, v

// POLY: y = r·(1 + r·(½ + r·(c3 + … + r·c8))), Horner by fused steps.
#define FMA_POLY(v, p) \
	VMOVUPD expc8<>(SB), p; \
	VFMADD213PD expc7<>(SB), v, p; \
	VFMADD213PD expc6<>(SB), v, p; \
	VFMADD213PD expc5<>(SB), v, p; \
	VFMADD213PD expc4<>(SB), v, p; \
	VFMADD213PD expc3<>(SB), v, p; \
	VFMADD213PD exphalf<>(SB), v, p; \
	VFMADD213PD expone<>(SB), v, p; \
	VMULPD  p, v, v

// SQUARE: y ← y·(y+2) three times, then y·(y+2) + 1 fused.
#define FMA_SQUARE(v, p) \
	VADDPD  exptwo<>(SB), v, p; \
	VMULPD  p, v, v; \
	VADDPD  exptwo<>(SB), v, p; \
	VMULPD  p, v, v; \
	VADDPD  exptwo<>(SB), v, p; \
	VMULPD  p, v, v; \
	VADDPD  exptwo<>(SB), v, p; \
	VFMADD213PD expone<>(SB), p, v

// SCALE: times 2**k. The four biased exponents are widened to 64 bits and
// shifted into place with 128-bit integer instructions (AVX has no 256-bit
// ones), the low pair in xp (p's low half) and the high pair in X15, and
// joined into p. X3 holds zero.
#define FMA_SCALE(v, p, xp, k) \
	VPADDD  expbias<>(SB), k, k; \
	VPUNPCKLDQ X3, k, xp; \
	VPUNPCKHDQ X3, k, X15; \
	VPSLLQ  $52, xp, xp; \
	VPSLLQ  $52, X15, X15; \
	VINSERTF128 $1, X15, p, p; \
	VMULPD  p, v, v

// func expQuadsFMA(dst, src []float64) (onPath bool)
// The FMA path on the len(src)/4 whole quads of src. Needs AVX and FMA.
TEXT ·expQuadsFMA(SB), NOSPLIT, $0-49
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), DX
	VPXOR   X3, X3, X3
	VPCMPEQD Y7, Y7, Y7
	MOVQ    DX, CX
	SHRQ    $3, CX
	JZ      fmaquad
fmaoctet:
	VMOVUPD 0(SI), Y0
	VMOVUPD 32(SI), Y4
	FMA_CHECK(Y0)
	FMA_CHECK(Y4)
	FMA_REDUCE(Y0, Y1, X2)
	FMA_REDUCE(Y4, Y5, X6)
	FMA_POLY(Y0, Y1)
	FMA_POLY(Y4, Y5)
	FMA_SQUARE(Y0, Y1)
	FMA_SQUARE(Y4, Y5)
	FMA_SCALE(Y0, Y1, X1, X2)
	FMA_SCALE(Y4, Y5, X5, X6)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     fmaoctet
fmaquad:
	TESTQ   $4, DX
	JZ      fmadone
	VMOVUPD 0(SI), Y0
	FMA_CHECK(Y0)
	FMA_REDUCE(Y0, Y1, X2)
	FMA_POLY(Y0, Y1)
	FMA_SQUARE(Y0, Y1)
	FMA_SCALE(Y0, Y1, X1, X2)
	VMOVUPD Y0, 0(DI)
fmadone:
	VMOVMSKPD Y7, AX
	CMPQ    AX, $15
	SETEQ   onPath+48(FP)
	VZEROUPPER
	RET

// SSE2 path: two lanes per XMM register, every product rounded before its
// sum. CHECK: X7 &= (lo ≤ x) & (x ≤ hi).
#define SSE2_CHECK(v) \
	MOVAPD  explo<>(SB), X15; \
	CMPPD   v, X15, $2; \
	ANDPD   X15, X7; \
	MOVAPD  v, X15; \
	CMPPD   exphi<>(SB), X15, $2; \
	ANDPD   X15, X7

// REDUCE, with X15 as scratch.
#define SSE2_REDUCE(v, p, k) \
	MOVAPD  explog2e<>(SB), p; \
	MULPD   v, p; \
	CVTPD2PL p, k; \
	CVTPL2PD k, p; \
	MOVAPD  expln2u<>(SB), X15; \
	MULPD   p, X15; \
	SUBPD   X15, v; \
	MOVAPD  expln2l<>(SB), X15; \
	MULPD   p, X15; \
	SUBPD   X15, v; \
	MULPD   expsixteenth<>(SB), v

#define SSE2_POLY(v, p) \
	MOVAPD  expc8<>(SB), p; \
	MULPD   v, p; \
	ADDPD   expc7<>(SB), p; \
	MULPD   v, p; \
	ADDPD   expc6<>(SB), p; \
	MULPD   v, p; \
	ADDPD   expc5<>(SB), p; \
	MULPD   v, p; \
	ADDPD   expc4<>(SB), p; \
	MULPD   v, p; \
	ADDPD   expc3<>(SB), p; \
	MULPD   v, p; \
	ADDPD   exphalf<>(SB), p; \
	MULPD   v, p; \
	ADDPD   expone<>(SB), p; \
	MULPD   p, v

// SQUARE: y ← y·(y+2) four times, then y + 1.
#define SSE2_SQUARE(v, p) \
	MOVAPD  exptwo<>(SB), p; \
	ADDPD   v, p; \
	MULPD   p, v; \
	MOVAPD  exptwo<>(SB), p; \
	ADDPD   v, p; \
	MULPD   p, v; \
	MOVAPD  exptwo<>(SB), p; \
	ADDPD   v, p; \
	MULPD   p, v; \
	MOVAPD  exptwo<>(SB), p; \
	ADDPD   v, p; \
	MULPD   p, v; \
	ADDPD   expone<>(SB), v

// SCALE: times 2**k, the two biased exponents in k's low half widened to
// 64 bits and shifted into place. X3 holds zero.
#define SSE2_SCALE(v, k) \
	PADDL   expbias<>(SB), k; \
	PUNPCKLLQ X3, k; \
	PSLLQ   $52, k; \
	MULPD   k, v

// func expQuadsSSE2(dst, src []float64) (onPath bool)
// The SSE2 path on the len(src)/4 whole quads of src.
TEXT ·expQuadsSSE2(SB), NOSPLIT, $0-49
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), DX
	PXOR    X3, X3
	PCMPEQL X7, X7
	MOVQ    DX, CX
	SHRQ    $3, CX
	JZ      sse2quad
sse2octet:
	MOVUPD  0(SI), X0
	MOVUPD  16(SI), X4
	MOVUPD  32(SI), X8
	MOVUPD  48(SI), X12
	SSE2_CHECK(X0)
	SSE2_CHECK(X4)
	SSE2_CHECK(X8)
	SSE2_CHECK(X12)
	SSE2_REDUCE(X0, X1, X2)
	SSE2_REDUCE(X4, X5, X6)
	SSE2_REDUCE(X8, X9, X10)
	SSE2_REDUCE(X12, X13, X14)
	SSE2_POLY(X0, X1)
	SSE2_POLY(X4, X5)
	SSE2_POLY(X8, X9)
	SSE2_POLY(X12, X13)
	SSE2_SQUARE(X0, X1)
	SSE2_SQUARE(X4, X5)
	SSE2_SQUARE(X8, X9)
	SSE2_SQUARE(X12, X13)
	SSE2_SCALE(X0, X2)
	SSE2_SCALE(X4, X6)
	SSE2_SCALE(X8, X10)
	SSE2_SCALE(X12, X14)
	MOVUPD  X0, 0(DI)
	MOVUPD  X4, 16(DI)
	MOVUPD  X8, 32(DI)
	MOVUPD  X12, 48(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     sse2octet
sse2quad:
	TESTQ   $4, DX
	JZ      sse2done
	MOVUPD  0(SI), X0
	MOVUPD  16(SI), X4
	SSE2_CHECK(X0)
	SSE2_CHECK(X4)
	SSE2_REDUCE(X0, X1, X2)
	SSE2_REDUCE(X4, X5, X6)
	SSE2_POLY(X0, X1)
	SSE2_POLY(X4, X5)
	SSE2_SQUARE(X0, X1)
	SSE2_SQUARE(X4, X5)
	SSE2_SCALE(X0, X2)
	SSE2_SCALE(X4, X6)
	MOVUPD  X0, 0(DI)
	MOVUPD  X4, 16(DI)
sse2done:
	MOVMSKPD X7, AX
	CMPQ    AX, $3
	SETEQ   onPath+48(FP)
	RET
