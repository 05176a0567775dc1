package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

// lgamma is ln Γ(x) from the standard library, the reference LogBeta is
// checked against.
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

func TestDigammaKnownValues(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{1, -EulerGamma},
		{0.5, -EulerGamma - 2*math.Ln2},
		{2, 1 - EulerGamma},
		{3, 1.5 - EulerGamma},
		{4, 1 + 0.5 + 1.0/3 - EulerGamma},
		{10, 2.2517525890667211},
		{100, 4.6001618527380874002},
	}
	for _, c := range cases {
		got := Digamma(c.x)
		if !almostEqual(got, c.want, 1e-10) {
			t.Errorf("Digamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestDigammaRecurrenceProperty(t *testing.T) {
	// ψ(x+1) = ψ(x) + 1/x across many magnitudes.
	f := func(raw float64) bool {
		x := math.Abs(raw)
		x = math.Mod(x, 50) + 0.01 // keep in (0.01, 50.01)
		lhs := Digamma(x + 1)
		rhs := Digamma(x) + 1/x
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDigammaMatchesLgammaDerivative(t *testing.T) {
	// Central finite difference of math.Lgamma should match ψ.
	for _, x := range []float64{0.3, 0.9, 1.5, 2.7, 5.0, 12.5, 40, 123.4} {
		h := 1e-6 * math.Max(1, x)
		lg1, _ := math.Lgamma(x + h)
		lg0, _ := math.Lgamma(x - h)
		fd := (lg1 - lg0) / (2 * h)
		if !almostEqual(Digamma(x), fd, 1e-5) {
			t.Errorf("Digamma(%v)=%v, finite diff=%v", x, Digamma(x), fd)
		}
	}
}

func TestDigammaInvalid(t *testing.T) {
	for _, x := range []float64{0, -1, -0.5, math.NaN()} {
		if !math.IsNaN(Digamma(x)) {
			t.Errorf("Digamma(%v) should be NaN", x)
		}
	}
}

func TestTrigammaKnownValues(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{1, math.Pi * math.Pi / 6},
		{0.5, math.Pi * math.Pi / 2},
		{2, math.Pi*math.Pi/6 - 1},
		{10, 0.10516633568168575},
	}
	for _, c := range cases {
		got := Trigamma(c.x)
		if !almostEqual(got, c.want, 1e-10) {
			t.Errorf("Trigamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestTrigammaRecurrenceProperty(t *testing.T) {
	// ψ′(x+1) = ψ′(x) − 1/x².
	f := func(raw float64) bool {
		x := math.Abs(raw)
		x = math.Mod(x, 40) + 0.05
		lhs := Trigamma(x + 1)
		rhs := Trigamma(x) - 1/(x*x)
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestTrigammaIsDigammaDerivative(t *testing.T) {
	for _, x := range []float64{0.4, 1.1, 3.3, 7.7, 25} {
		h := 1e-5 * math.Max(1, x)
		fd := (Digamma(x+h) - Digamma(x-h)) / (2 * h)
		if !almostEqual(Trigamma(x), fd, 1e-4) {
			t.Errorf("Trigamma(%v)=%v, finite diff=%v", x, Trigamma(x), fd)
		}
	}
}

func TestTrigammaPositive(t *testing.T) {
	// ψ′ is positive and strictly decreasing on (0, ∞).
	prev := math.Inf(1)
	for x := 0.1; x < 30; x += 0.37 {
		v := Trigamma(x)
		if v <= 0 {
			t.Fatalf("Trigamma(%v) = %v, want > 0", x, v)
		}
		if v >= prev {
			t.Fatalf("Trigamma not decreasing at %v: %v >= %v", x, v, prev)
		}
		prev = v
	}
}

func TestLogBetaAgainstGamma(t *testing.T) {
	// B(a, b) = Γ(a)Γ(b)/Γ(a+b) for the bivariate case.
	cases := [][2]float64{{1, 1}, {2, 3}, {0.5, 0.5}, {7.5, 2.25}}
	for _, c := range cases {
		want := lgamma(c[0]) + lgamma(c[1]) - lgamma(c[0]+c[1])
		got := LogBeta(c[:])
		if !almostEqual(got, want, 1e-12) {
			t.Errorf("LogBeta(%v) = %v, want %v", c, got, want)
		}
	}
}

func TestLogBetaUniformDirichlet(t *testing.T) {
	// B(1,1,...,1) over K categories = 1/Γ(K) · Γ(1)^K → ln B = −ln Γ(K).
	for K := 2; K <= 10; K++ {
		alpha := make([]float64, K)
		for i := range alpha {
			alpha[i] = 1
		}
		want := -lgamma(float64(K))
		if got := LogBeta(alpha); !almostEqual(got, want, 1e-12) {
			t.Errorf("LogBeta(ones(%d)) = %v, want %v", K, got, want)
		}
	}
}

func TestLogBetaInvalid(t *testing.T) {
	if !math.IsNaN(LogBeta(nil)) {
		t.Error("LogBeta(nil) should be NaN")
	}
	if !math.IsNaN(LogBeta([]float64{1, 0})) {
		t.Error("LogBeta with zero component should be NaN")
	}
	if !math.IsNaN(LogBeta([]float64{1, -2})) {
		t.Error("LogBeta with negative component should be NaN")
	}
}

func TestEntropyBounds(t *testing.T) {
	// Uniform maximizes entropy: H(uniform_K) = ln K.
	for K := 2; K < 8; K++ {
		u := make([]float64, K)
		for i := range u {
			u[i] = 1 / float64(K)
		}
		if !almostEqual(Entropy(u), math.Log(float64(K)), 1e-12) {
			t.Errorf("H(uniform_%d) != ln %d", K, K)
		}
	}
	if Entropy([]float64{1, 0, 0}) != 0 {
		t.Error("point mass entropy should be 0")
	}
}

func BenchmarkDigamma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Digamma(1.0 + float64(i%100))
	}
}

func BenchmarkTrigamma(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Trigamma(1.0 + float64(i%100))
	}
}

func BenchmarkLogBetaK4(b *testing.B) {
	alpha := []float64{1.5, 2.5, 3.5, 0.5}
	for i := 0; i < b.N; i++ {
		LogBeta(alpha)
	}
}
