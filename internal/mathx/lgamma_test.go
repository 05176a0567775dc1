package mathx

import (
	"math"
	"math/rand"
	"testing"
)

// lgammaBitCases are lgammaPos's branch edges: the old Tiny cut-off, the
// switch points inside (0, 2), the purged integers 1 and 2, every integer
// part of the [2, 8) reduction, the asymptotic cut-off 2⁵⁸ and the ends of
// the positive range, with sample points inside each branch (2.5, 10 and
// 1e10 are far enough from every edge that the neighbours do not reach one).
var lgammaBitCases = []float64{
	1.0 / (1 << 70), 0.2316, 0.7316, 0.9,
	1, 1.2316, 1.7316, 2, 3, 4, 5, 6, 7, 8, 1 << 58,
	2.5, 10, 1e10,
	math.SmallestNonzeroFloat64, math.MaxFloat64,
}

func TestLgammaPosBitEqual(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		want, _ := math.Lgamma(x)
		if got := lgammaPos(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("lgammaPos(%v) = %v (%#x), math.Lgamma = %v (%#x)",
				x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, x := range lgammaBitCases {
		check(x)
		if below := math.Nextafter(x, 0); below > 0 {
			check(below)
		}
		check(math.Nextafter(x, math.Inf(1)))
	}
	check(math.Inf(1))
	check(math.NaN())
}

func FuzzLgammaPos(f *testing.F) {
	for _, x := range lgammaBitCases {
		f.Add(x)
	}
	f.Add(-2.5)
	f.Fuzz(func(t *testing.T, x float64) {
		if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) {
			return
		}
		x = math.Abs(x)
		want, _ := math.Lgamma(x)
		if got := lgammaPos(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("lgammaPos(%v) = %#x, math.Lgamma = %#x", x, math.Float64bits(got), math.Float64bits(want))
		}
	})
}

func TestLogBetaMatchesLgammaReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 2; k <= 6; k++ {
		alpha := make([]float64, k)
		for trial := 0; trial < 500; trial++ {
			var want, sum float64
			for c := range alpha {
				alpha[c] = 1 + 199*rng.Float64()
				want += lgamma(alpha[c])
				sum += alpha[c]
			}
			want -= lgamma(sum)
			if got := LogBeta(alpha); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("LogBeta(%v) = %v, reference %v", alpha, got, want)
			}
		}
	}
}
