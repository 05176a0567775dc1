#include "textflag.h"

// AVX2 forms of the E-step's Go K=4 kernels (kernels.go): linkRowK4,
// scoreCatAttrK4 and normalizeRowK4, each over a whole chunk. A K=4 row is
// one YMM register. Each lane performs the Go kernel's IEEE operations in
// the same order, with the same first operand, and every reduction across
// a row's four components is a chain of three scalar adds in ascending
// order, so the results are the Go kernels' bits. No fused multiply-add
// is used: Go rounds every product before its sum. See kernels_amd64.go
// for the layouts and the bounds the callers check.

// The +Inf bits, for the normalize kernel's finiteness test.
DATA normposinf<>+0(SB)/8, $0x7FF0000000000000
GLOBL normposinf<>(SB), RODATA, $8

// SUM4: s = ((v0 + v1) + v2) + v3 for the four lanes of v (whose low half
// is xv), with t and u as scratch.
#define SUM4(v, xv, s, t, u) \
	VEXTRACTF128 $1, v, t; \
	VUNPCKHPD xv, xv, u; \
	VADDSD  u, xv, s; \
	VADDSD  t, s, s; \
	VUNPCKHPD t, t, u; \
	VADDSD  u, s, s

// func linkRowsK4(rows, tf, gamma []float64, edges []hin.Edge, start []int)
// For each row v of rows: rows[v] += Σ γ[e.Rel]·e.Weight·tf[e.To] over
// edges[start[v]:start[v+1]], in edge order. Per edge, g = γ·w is one
// scalar multiply, broadcast; then acc += g·θ is a packed multiply and a
// packed add.
TEXT ·linkRowsK4(SB), NOSPLIT, $0-120
	MOVQ    rows_base+0(FP), DI
	MOVQ    tf_base+24(FP), SI
	MOVQ    gamma_base+48(FP), R8
	MOVQ    edges_base+72(FP), R9
	MOVQ    start_base+96(FP), R10
	MOVQ    start_len+104(FP), CX
	DECQ    CX
	JLE     linkdone
	MOVQ    0(R10), AX
	SHLQ    $5, AX
	ADDQ    R9, AX // AX = &edges[start[0]]
linkrow:
	MOVQ    8(R10), BX
	SHLQ    $5, BX
	ADDQ    R9, BX // BX = &edges[start[v+1]]
	VMOVUPD 0(DI), Y0
	CMPQ    AX, BX
	JAE     linkstore
linkedge:
	MOVQ    16(AX), R11 // e.Rel
	VMOVSD  (R8)(R11*8), X1
	VMULSD  24(AX), X1, X1 // g = γ[e.Rel]·e.Weight
	VBROADCASTSD X1, Y1
	MOVQ    8(AX), R12 // e.To
	SHLQ    $5, R12
	VMULPD  (SI)(R12*1), Y1, Y1 // g·θ_u
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, AX
	CMPQ    AX, BX
	JB      linkedge
linkstore:
	VMOVUPD Y0, 0(DI)
	ADDQ    $32, DI
	ADDQ    $8, R10
	DECQ    CX
	JNZ     linkrow
linkdone:
	VZEROUPPER
	RET

// func catRowsK4(rows, st, betaT, th []float64, terms [][]hin.TermCount)
// For each row v of rows with terms[v] non-empty, and each term count
// (t, c) of terms[v] in order: r = θ_v ⊙ β_t; sum = ((r0+r1)+r2)+r3; the
// term is skipped when sum ≤ 0 (an ordered compare: a NaN sum is not
// skipped, as in Go); otherwise r ·= c/sum, rows[v] += r and st_t += r.
TEXT ·catRowsK4(SB), NOSPLIT, $0-120
	MOVQ    rows_base+0(FP), DI
	MOVQ    st_base+24(FP), R8
	MOVQ    betaT_base+48(FP), R9
	MOVQ    th_base+72(FP), SI
	MOVQ    terms_base+96(FP), R10
	MOVQ    terms_len+104(FP), CX
	TESTQ   CX, CX
	JZ      catdone
	VXORPD  X15, X15, X15
catrow:
	MOVQ    8(R10), DX // len(terms[v])
	TESTQ   DX, DX
	JZ      catnext
	MOVQ    0(R10), AX // &terms[v][0]
	VMOVUPD 0(SI), Y2  // θ_v
	VMOVUPD 0(DI), Y0  // the row's accumulators
catterm:
	MOVQ    0(AX), R11 // tc.Term
	SHLQ    $5, R11
	VMULPD  (R9)(R11*1), Y2, Y3 // r = θ ⊙ β_t
	SUM4(Y3, X3, X6, X4, X5)
	VUCOMISD X6, X15
	JCC     catskip // 0 ≥ sum, ordered
	VMOVSD  8(AX), X7
	VDIVSD  X6, X7, X7 // inv = c/sum
	VBROADCASTSD X7, Y7
	VMULPD  Y7, Y3, Y3
	VADDPD  Y3, Y0, Y0
	VMOVUPD (R8)(R11*1), Y8
	VADDPD  Y3, Y8, Y8
	VMOVUPD Y8, (R8)(R11*1)
catskip:
	ADDQ    $16, AX
	DECQ    DX
	JNZ     catterm
	VMOVUPD Y0, 0(DI)
catnext:
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $24, R10
	DECQ    CX
	JNZ     catrow
catdone:
	VZEROUPPER
	RET

// func normalizeRowsK4(dst, rows, old []float64, eps float64)
// For each row n of rows: mass = ((n0+n1)+n2)+n3; unless 0 < mass < +Inf
// (ordered), dst's row is old's row. Otherwise x = n/mass, every x with
// !(x ≥ ε) becomes ε (an ordered ≥ and a blend), and dst's row is x/sum
// with sum = ((x0+x1)+x2)+x3.
TEXT ·normalizeRowsK4(SB), NOSPLIT, $0-80
	MOVQ    dst_base+0(FP), DI
	MOVQ    rows_base+24(FP), SI
	MOVQ    rows_len+32(FP), CX
	MOVQ    old_base+48(FP), R8
	VBROADCASTSD eps+72(FP), Y15
	VXORPD  X14, X14, X14
	VMOVSD  normposinf<>(SB), X13
	SHRQ    $2, CX
	JZ      normdone
normrow:
	VMOVUPD 0(SI), Y0
	SUM4(Y0, X0, X3, X1, X2) // mass
	VUCOMISD X14, X3
	JLS     normold // mass ≤ 0 or NaN
	VUCOMISD X3, X13
	JLS     normold // mass = +Inf
	VBROADCASTSD X3, Y3
	VDIVPD  Y3, Y0, Y0
	VCMPPD  $0x1D, Y15, Y0, Y1 // x ≥ ε, ordered
	VBLENDVPD Y1, Y0, Y15, Y0  // x where x ≥ ε, else ε
	SUM4(Y0, X0, X3, X1, X2)
	VBROADCASTSD X3, Y3
	VDIVPD  Y3, Y0, Y0
	VMOVUPD Y0, 0(DI)
	JMP     normnext
normold:
	VMOVUPD 0(R8), Y0
	VMOVUPD Y0, 0(DI)
normnext:
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	DECQ    CX
	JNZ     normrow
normdone:
	VZEROUPPER
	RET
