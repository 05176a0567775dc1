package core

import (
	"math"
	"math/rand"
	"testing"

	"genclus/internal/hin"
)

// bitsEqual reports whether got has want's bits, counting every NaN as
// equal to every NaN: which operand's payload a NaN result carries is not
// a value the fit reads.
func bitsEqual(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// checkSame fails unless got and want hold the same bits.
func checkSame(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("%s[%d]: packed %v (%#x), Go %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// needPacked skips unless the AVX2 kernels run on this host.
func needPacked(t *testing.T) {
	t.Helper()
	if !packedKernels {
		t.Skip("the packed kernels need AVX2")
	}
}

// kernelRow draws a K=4 row: mostly a membership or a β column, now and
// then with a zero, a subnormal, a huge value or one component dominant.
func kernelRow(rng *rand.Rand) []float64 {
	row := make([]float64, 4)
	for c := range row {
		switch rng.Intn(12) {
		case 0:
			row[c] = 0
		case 1:
			row[c] = math.Ldexp(rng.Float64(), -1060) // subnormal
		case 2:
			row[c] = math.Ldexp(1+rng.Float64(), -540) // products go subnormal
		case 3:
			row[c] = 1e-12
		default:
			row[c] = rng.Float64()
		}
	}
	return row
}

// TestPackedLinkMatchesGo: linkRowsK4 adds what linkRowK4 adds, bit for
// bit, over rows with empty edge runs, short runs and venue-sized runs of
// hundreds of links, with zero, tiny and large strengths and Θ rows whose
// products go subnormal, onto rows that do not start at zero.
func TestPackedLinkMatchesGo(t *testing.T) {
	needPacked(t)
	rng := rand.New(rand.NewSource(41))
	const nObj, nRel = 900, 3
	tf := make([]float64, 0, nObj*4)
	for v := 0; v < nObj; v++ {
		tf = append(tf, kernelRow(rng)...)
	}
	gamma := []float64{0, 1e-300, 2.75}
	for round := 0; round < 50; round++ {
		rows := 1 + rng.Intn(40)
		start := []int{0}
		var edges []hin.Edge
		for v := 0; v < rows; v++ {
			n := 0
			switch rng.Intn(4) {
			case 0: // no out-links
			case 1:
				n = 200 + rng.Intn(400) // a venue
			default:
				n = 1 + rng.Intn(6)
			}
			for j := 0; j < n; j++ {
				w := 1 + float64(rng.Intn(3))
				if rng.Intn(10) == 0 {
					w = math.Ldexp(1, -600)
				}
				edges = append(edges, hin.Edge{From: v, To: rng.Intn(nObj), Rel: rng.Intn(nRel), Weight: w})
			}
			start = append(start, len(edges))
		}
		init := make([]float64, 4*rows)
		for i := range init {
			init[i] = float64(rng.Intn(3)) * rng.Float64()
		}
		got := append([]float64(nil), init...)
		linkRowsK4(got, tf, gamma, edges, start)
		want := append([]float64(nil), init...)
		for v := 0; v < rows; v++ {
			linkRowK4(want[4*v:4*v+4:4*v+4], tf, gamma, edges[start[v]:start[v+1]])
		}
		checkSame(t, "link row", got, want)
	}
}

// TestPackedCatMatchesGo: catRowsK4 adds what scoreCatAttrK4 adds to the
// rows and to the M-step statistics, bit for bit: terms whose β is 0 in
// every component (sum = 0, skipped), a Θ row holding NaN (sum NaN, not
// skipped), products that go subnormal, objects without terms, and
// repeated terms across objects.
func TestPackedCatMatchesGo(t *testing.T) {
	needPacked(t)
	rng := rand.New(rand.NewSource(43))
	const vocab = 64
	betaT := make([]float64, 0, vocab*4)
	for l := 0; l < vocab; l++ {
		if l%9 == 0 {
			betaT = append(betaT, 0, 0, 0, 0) // impossible under every component
			continue
		}
		betaT = append(betaT, kernelRow(rng)...)
	}
	for round := 0; round < 200; round++ {
		rows := 1 + rng.Intn(30)
		th := make([]float64, 0, 4*rows)
		terms := make([][]hin.TermCount, rows)
		for v := 0; v < rows; v++ {
			row := kernelRow(rng)
			if rng.Intn(25) == 0 {
				row[rng.Intn(4)] = math.NaN()
			}
			th = append(th, row...)
			if rng.Intn(5) == 0 {
				continue
			}
			for l := rng.Intn(4); l < vocab; l += 1 + rng.Intn(8) {
				terms[v] = append(terms[v], hin.TermCount{Term: l, Count: float64(1 + rng.Intn(4))})
			}
		}
		init := make([]float64, 4*rows)
		for i := range init {
			init[i] = rng.Float64()
		}
		stInit := make([]float64, vocab*4)
		for i := range stInit {
			stInit[i] = rng.Float64()
		}
		got, gotSt := append([]float64(nil), init...), append([]float64(nil), stInit...)
		catRowsK4(got, gotSt, betaT, th, terms)
		want, wantSt := append([]float64(nil), init...), append([]float64(nil), stInit...)
		for v := 0; v < rows; v++ {
			if len(terms[v]) > 0 {
				scoreCatAttrK4(want[4*v:4*v+4:4*v+4], wantSt, betaT, th[4*v:4*v+4], terms[v])
			}
		}
		checkSame(t, "cat row", got, want)
		checkSame(t, "cat statistics", gotSt, wantSt)
	}
}

// TestPackedNormalizeMatchesGo: normalizeRowsK4 writes what
// normalizeRowK4 writes, or the old row where it reports false, bit for
// bit: zero, negative-zero, +Inf and NaN masses, a component at exactly ε
// and one ulp either side of it, and random rows with floored components.
func TestPackedNormalizeMatchesGo(t *testing.T) {
	needPacked(t)
	rng := rand.New(rand.NewSource(47))
	const eps = 1e-9
	type tcase struct {
		row []float64
		eps float64
	}
	var cases []tcase
	for _, row := range [][]float64{
		{0, 0, 0, 0},
		{math.Copysign(0, -1), 0, 0, 0},
		{1, math.Inf(1), 0, 2},
		{math.MaxFloat64, math.MaxFloat64, 1, 1}, // the mass overflows
		{1, math.NaN(), 1, 1},
		{math.NaN(), math.NaN(), math.NaN(), math.NaN()},
		{1e-320, 0, 0, 0},
		{1, 1e-12, 0, 3},
	} {
		cases = append(cases, tcase{row, eps})
	}
	// x0 = n0/mass at exactly ε and one ulp either side of it.
	for i := 0; i < 50; i++ {
		row := []float64{rng.Float64() * 1e-6, rng.Float64(), rng.Float64(), rng.Float64()}
		mass := ((row[0] + row[1]) + row[2]) + row[3]
		x0 := row[0] / mass
		for _, e := range []float64{x0, math.Nextafter(x0, 0), math.Nextafter(x0, 1)} {
			cases = append(cases, tcase{row, e})
		}
	}
	for i := 0; i < 2000; i++ {
		cases = append(cases, tcase{kernelRow(rng), []float64{eps, 1e-3, 0.3}[rng.Intn(3)]})
	}
	for _, c := range cases {
		old := kernelRow(rng)
		got := make([]float64, 4)
		normalizeRowsK4(got, c.row, old, c.eps)
		want := make([]float64, 4)
		if !normalizeRowK4(want, c.row, c.eps) {
			copy(want, old)
		}
		checkSame(t, "normalized row", got, want)
	}
	// Whole chunks of such rows in one call.
	rows, old := make([]float64, 0, 4*len(cases)), make([]float64, 0, 4*len(cases))
	for _, c := range cases {
		rows = append(rows, c.row...)
		old = append(old, kernelRow(rng)...)
	}
	got := make([]float64, len(rows))
	normalizeRowsK4(got, rows, old, eps)
	want := make([]float64, len(rows))
	for v := 0; v < len(cases); v++ {
		w := want[4*v : 4*v+4 : 4*v+4]
		if !normalizeRowK4(w, rows[4*v:4*v+4], eps) {
			copy(w, old[4*v:4*v+4])
		}
	}
	checkSame(t, "normalized chunk", got, want)
}
