package core

import (
	"math"

	"genclus/internal/hin"
)

// This file holds the vectorization-oriented inner loops of the E-step: the
// out-link pass and the categorical attribute pass, each with a
// generic form plus K-specialized forms that keep the K accumulators in
// registers across the edge/term loop. Every specialization is bitwise
// identical to the generic form — same operations, same floating-point
// summation order — which TestFitGoldenBitwiseChecksum (K=2) and
// TestKernelSpecializationsBitwise (K=4 vs. the forced-generic path) pin.
//
// Rules these loops obey so the transforms stay bitwise-safe (see
// docs/ARCHITECTURE.md, "Numerics"):
//
//   - Sequential reductions (the per-term responsibility sum) keep their
//     ascending-index association exactly; only independent per-component
//     accumulators are unrolled.
//   - The historical `if g == 0 { continue }` edge guard is dropped rather
//     than restructured: every operand is non-negative and never −0.0, so a
//     zero-strength or zero-weight edge contributes +0.0 and x + (+0.0)
//     is bitwise x for the non-negative accumulators here. Removing the
//     branch changes no bits and unblocks instruction-level parallelism.
//   - Θ_{t−1} is read through the flat panel (tf[c*k+i]) instead of a row
//     header chase; same memory, same values.
//   - Bounds checks are hoisted by full-slice expressions ([lo:hi:hi]) so
//     the compiler proves the inner loop in-bounds once per row/term.
//
// forceGenericKernels routes every dispatch to the generic forms; the
// kernel-equivalence test flips it to prove the specializations change no
// bits. Not for concurrent mutation — tests set it around serial fits only.
var forceGenericKernels bool

// linkPass adds the γ-weighted out-link term to every unnormalized row of
// the chunk: rows[v][i] += Σ_{e=<v,u>} γ(φ(e))·w(e)·Θold[u][i], walking v's
// run of the sorted edge list (relation-major, ascending target, duplicates
// in build order). A zero-strength relation's links add +0.0.
func linkPass(rows, tf, gamma []float64, net *hin.Network, lo, hi, k int) {
	switch {
	case k == 4 && !forceGenericKernels:
		for v := lo; v < hi; v++ {
			b := (v - lo) * 4
			linkRowK4(rows[b:b+4:b+4], tf, gamma, net.OutEdges(v))
		}
	case k == 2 && !forceGenericKernels:
		for v := lo; v < hi; v++ {
			b := (v - lo) * 2
			linkRowK2(rows[b:b+2:b+2], tf, gamma, net.OutEdges(v))
		}
	default:
		for v := lo; v < hi; v++ {
			b := (v - lo) * k
			nr := rows[b : b+k : b+k]
			for _, e := range net.OutEdges(v) {
				g := gamma[e.Rel] * e.Weight
				tb := e.To * k
				tu := tf[tb : tb+k : tb+k]
				for i := range tu {
					nr[i] += g * tu[i]
				}
			}
		}
	}
}

// linkRowK4 is linkPass's inner loop for K=4 with the four accumulators held
// in registers across the row's edges.
func linkRowK4(nr, tf, gamma []float64, out []hin.Edge) {
	a0, a1, a2, a3 := nr[0], nr[1], nr[2], nr[3]
	for _, e := range out {
		g := gamma[e.Rel] * e.Weight
		tb := e.To * 4
		t := tf[tb : tb+4 : tb+4]
		a0 += g * t[0]
		a1 += g * t[1]
		a2 += g * t[2]
		a3 += g * t[3]
	}
	nr[0], nr[1], nr[2], nr[3] = a0, a1, a2, a3
}

// linkRowK2 is linkRowK4 for K=2.
func linkRowK2(nr, tf, gamma []float64, out []hin.Edge) {
	a0, a1 := nr[0], nr[1]
	for _, e := range out {
		g := gamma[e.Rel] * e.Weight
		tb := e.To * 2
		t := tf[tb : tb+2 : tb+2]
		a0 += g * t[0]
		a1 += g * t[1]
	}
	nr[0], nr[1] = a0, a1
}

// catPass adds one categorical attribute's responsibility terms to every
// unnormalized row of the chunk, with the M-step statistics fused in. Only
// emRange calls it; the fold-in Scorer calls the generic scoreCatAttrInto
// with st == nil.
func catPass(rows, st, resp, betaT []float64, thetaOld [][]float64, terms [][]hin.TermCount, lo, hi, k int) {
	switch {
	case k == 4 && !forceGenericKernels:
		for v := lo; v < hi; v++ {
			tcs := terms[v]
			if len(tcs) == 0 {
				continue
			}
			b := (v - lo) * 4
			scoreCatAttrK4(rows[b:b+4:b+4], st, betaT, thetaOld[v], tcs)
		}
	case k == 2 && !forceGenericKernels:
		for v := lo; v < hi; v++ {
			tcs := terms[v]
			if len(tcs) == 0 {
				continue
			}
			b := (v - lo) * 2
			scoreCatAttrK2(rows[b:b+2:b+2], st, betaT, thetaOld[v], tcs)
		}
	default:
		for v := lo; v < hi; v++ {
			tcs := terms[v]
			if len(tcs) == 0 {
				continue
			}
			b := (v - lo) * k
			scoreCatAttrInto(rows[b:b+k:b+k], st, resp, betaT, thetaOld[v], tcs, k)
		}
	}
}

// scoreCatAttrK4 is scoreCatAttrInto for K=4: the prior row and the four
// row accumulators stay in registers across the term loop, and each term's
// responsibility sum keeps the generic ascending association
// ((r0+r1)+r2)+r3 (the generic loop's (((0+r0)+r1)+r2)+r3 — identical,
// since r0 ≥ +0.0).
func scoreCatAttrK4(nr, st, betaT, th []float64, tcs []hin.TermCount) {
	th0, th1, th2, th3 := th[0], th[1], th[2], th[3]
	a0, a1, a2, a3 := nr[0], nr[1], nr[2], nr[3]
	for _, tc := range tcs {
		base := tc.Term * 4
		bt := betaT[base : base+4 : base+4]
		r0, r1, r2, r3 := th0*bt[0], th1*bt[1], th2*bt[2], th3*bt[3]
		sum := ((r0 + r1) + r2) + r3
		if sum <= 0 {
			continue // term impossible under every component
		}
		inv := tc.Count / sum
		stt := st[base : base+4 : base+4]
		r0 *= inv
		r1 *= inv
		r2 *= inv
		r3 *= inv
		a0 += r0
		a1 += r1
		a2 += r2
		a3 += r3
		stt[0] += r0
		stt[1] += r1
		stt[2] += r2
		stt[3] += r3
	}
	nr[0], nr[1], nr[2], nr[3] = a0, a1, a2, a3
}

// gaussPass adds one Gaussian attribute's responsibility terms to every
// unnormalized row of the chunk; the K=4 form keeps means, variances and
// accumulators in registers and skips the scratch arrays (the math.Exp
// calls — the pass's real cost — are unchanged).
func gaussPass(rows, gw, gwx, gwx2, resp, logs, logTh, mu, vr, hlv []float64, thetaOld [][]float64, obs [][]float64, lo, hi, k int) {
	if k == 4 && !forceGenericKernels {
		for v := lo; v < hi; v++ {
			xs := obs[v]
			if len(xs) == 0 {
				continue
			}
			b := (v - lo) * 4
			scoreGaussAttrK4(rows[b:b+4:b+4], gw, gwx, gwx2, mu, vr, hlv, thetaOld[v], xs)
		}
		return
	}
	for v := lo; v < hi; v++ {
		xs := obs[v]
		if len(xs) == 0 {
			continue
		}
		b := (v - lo) * k
		scoreGaussAttrInto(rows[b:b+k:b+k], gw, gwx, gwx2, resp, logs, logTh, mu, vr, hlv, thetaOld[v], xs, k)
	}
}

// scoreGaussAttrK4 is scoreGaussAttrInto for K=4. The max shift scans
// components in ascending order exactly like the generic loop, and the
// responsibility sum keeps its ascending association.
func scoreGaussAttrK4(nr, gw, gwx, gwx2, mu, vr, hlv, th, xs []float64) {
	lt0, lt1, lt2, lt3 := math.Log(th[0]), math.Log(th[1]), math.Log(th[2]), math.Log(th[3])
	mu0, mu1, mu2, mu3 := mu[0], mu[1], mu[2], mu[3]
	vr0, vr1, vr2, vr3 := vr[0], vr[1], vr[2], vr[3]
	h0, h1, h2, h3 := hlv[0], hlv[1], hlv[2], hlv[3]
	a0, a1, a2, a3 := nr[0], nr[1], nr[2], nr[3]
	w0, w1, w2, w3 := gw[0], gw[1], gw[2], gw[3]
	x0, x1, x2, x3 := gwx[0], gwx[1], gwx[2], gwx[3]
	q0, q1, q2, q3 := gwx2[0], gwx2[1], gwx2[2], gwx2[3]
	for _, x := range xs {
		d0 := x - mu0
		l0 := lt0 - 0.5*d0*d0/vr0 - h0
		d1 := x - mu1
		l1 := lt1 - 0.5*d1*d1/vr1 - h1
		d2 := x - mu2
		l2 := lt2 - 0.5*d2*d2/vr2 - h2
		d3 := x - mu3
		l3 := lt3 - 0.5*d3*d3/vr3 - h3
		m := math.Inf(-1)
		if l0 > m {
			m = l0
		}
		if l1 > m {
			m = l1
		}
		if l2 > m {
			m = l2
		}
		if l3 > m {
			m = l3
		}
		if math.IsInf(m, -1) {
			continue
		}
		r0 := math.Exp(l0 - m)
		r1 := math.Exp(l1 - m)
		r2 := math.Exp(l2 - m)
		r3 := math.Exp(l3 - m)
		sum := ((r0 + r1) + r2) + r3
		r0 /= sum
		r1 /= sum
		r2 /= sum
		r3 /= sum
		a0 += r0
		a1 += r1
		a2 += r2
		a3 += r3
		w0 += r0
		w1 += r1
		w2 += r2
		w3 += r3
		x0 += r0 * x
		x1 += r1 * x
		x2 += r2 * x
		x3 += r3 * x
		q0 += r0 * x * x
		q1 += r1 * x * x
		q2 += r2 * x * x
		q3 += r3 * x * x
	}
	nr[0], nr[1], nr[2], nr[3] = a0, a1, a2, a3
	gw[0], gw[1], gw[2], gw[3] = w0, w1, w2, w3
	gwx[0], gwx[1], gwx[2], gwx[3] = x0, x1, x2, x3
	gwx2[0], gwx2[1], gwx2[2], gwx2[3] = q0, q1, q2, q3
}

// normalizePass runs the E-step's final pass over the chunk: every
// unnormalized row becomes a proper membership row in Θ_t, objects with no
// information keep their prior row.
func normalizePass(rows []float64, theta, thetaOld [][]float64, lo, hi, k int, eps float64) {
	if k == 4 && !forceGenericKernels {
		for v := lo; v < hi; v++ {
			b := (v - lo) * 4
			if !normalizeRowK4(theta[v][:4:4], rows[b:b+4:b+4], eps) {
				copy(theta[v][:4:4], thetaOld[v])
			}
		}
		return
	}
	for v := lo; v < hi; v++ {
		b := (v - lo) * k
		dst := theta[v][:k:k]
		if !normalizeRowInto(dst, rows[b:b+k:b+k], eps) {
			copy(dst, thetaOld[v])
		}
	}
}

// normalizeRowK4 is normalizeRowInto for K=4, the whole row in registers.
// Both reductions keep the generic ascending association (the leading +0.0
// of the generic fold is bitwise-absorbed by the non-negative operands).
func normalizeRowK4(dst, nr []float64, eps float64) bool {
	n0, n1, n2, n3 := nr[0], nr[1], nr[2], nr[3]
	mass := ((n0 + n1) + n2) + n3
	if mass <= 0 || math.IsNaN(mass) || math.IsInf(mass, 0) {
		return false
	}
	x0 := n0 / mass
	if !(x0 >= eps) {
		x0 = eps
	}
	x1 := n1 / mass
	if !(x1 >= eps) {
		x1 = eps
	}
	x2 := n2 / mass
	if !(x2 >= eps) {
		x2 = eps
	}
	x3 := n3 / mass
	if !(x3 >= eps) {
		x3 = eps
	}
	sum := ((x0 + x1) + x2) + x3
	dst[0] = x0 / sum
	dst[1] = x1 / sum
	dst[2] = x2 / sum
	dst[3] = x3 / sum
	return true
}

// scoreCatAttrK2 is scoreCatAttrK4 for K=2.
func scoreCatAttrK2(nr, st, betaT, th []float64, tcs []hin.TermCount) {
	th0, th1 := th[0], th[1]
	a0, a1 := nr[0], nr[1]
	for _, tc := range tcs {
		base := tc.Term * 2
		bt := betaT[base : base+2 : base+2]
		r0, r1 := th0*bt[0], th1*bt[1]
		sum := r0 + r1
		if sum <= 0 {
			continue
		}
		inv := tc.Count / sum
		stt := st[base : base+2 : base+2]
		r0 *= inv
		r1 *= inv
		a0 += r0
		a1 += r1
		stt[0] += r0
		stt[1] += r1
	}
	nr[0], nr[1] = a0, a1
}
