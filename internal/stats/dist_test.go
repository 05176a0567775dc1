package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGaussianSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := Gaussian{Mu: -2, Sigma: 3}
	const n = 200000
	var sum, ss float64
	for i := 0; i < n; i++ {
		x := g.Sample(rng)
		sum += x
		ss += x * x
	}
	mean := sum / n
	variance := ss/n - mean*mean
	if math.Abs(mean-g.Mu) > 0.05 {
		t.Errorf("sample mean = %v, want %v", mean, g.Mu)
	}
	if math.Abs(variance-9) > 0.2 {
		t.Errorf("sample variance = %v, want 9", variance)
	}
}

func TestNewCategoricalValidation(t *testing.T) {
	if _, err := NewCategorical(nil); err == nil {
		t.Error("empty should error")
	}
	if _, err := NewCategorical([]float64{1, -1}); err == nil {
		t.Error("negative should error")
	}
	if _, err := NewCategorical([]float64{0, 0}); err == nil {
		t.Error("all-zero should error")
	}
	c, err := NewCategorical([]float64{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.P[0]-0.25) > 1e-12 || math.Abs(c.P[1]-0.75) > 1e-12 {
		t.Errorf("normalization wrong: %v", c.P)
	}
}

func TestCategoricalSampleFrequencies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c, _ := NewCategorical([]float64{1, 2, 7})
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[c.Sample(rng)]++
	}
	for k, p := range c.P {
		got := float64(counts[k]) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("category %d frequency %v, want %v", k, got, p)
		}
	}
}

func TestSampleGammaMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, shape := range []float64{0.5, 1, 2.5, 8} {
		const n = 100000
		var sum, ss float64
		for i := 0; i < n; i++ {
			x := SampleGamma(rng, shape)
			sum += x
			ss += x * x
		}
		mean := sum / n
		variance := ss/n - mean*mean
		// Gamma(shape,1): mean = shape, var = shape.
		if math.Abs(mean-shape) > 0.06*math.Max(1, shape) {
			t.Errorf("shape %v: mean = %v", shape, mean)
		}
		if math.Abs(variance-shape) > 0.12*math.Max(1, shape) {
			t.Errorf("shape %v: variance = %v", shape, variance)
		}
	}
}

func TestSampleGammaInvalid(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	if !math.IsNaN(SampleGamma(rng, 0)) || !math.IsNaN(SampleGamma(rng, -1)) {
		t.Error("non-positive shape should give NaN")
	}
}

func TestSampleDirichletProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	alpha := []float64{2, 3, 5}
	const n = 50000
	sums := make([]float64, 3)
	for i := 0; i < n; i++ {
		v, err := SampleDirichlet(rng, alpha)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for k, x := range v {
			if x < 0 {
				t.Fatal("negative component")
			}
			total += x
			sums[k] += x
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("not on simplex: sum = %v", total)
		}
	}
	// E[v_k] = alpha_k / Σalpha = 0.2, 0.3, 0.5.
	want := []float64{0.2, 0.3, 0.5}
	for k := range want {
		got := sums[k] / n
		if math.Abs(got-want[k]) > 0.01 {
			t.Errorf("component %d mean = %v, want %v", k, got, want[k])
		}
	}
}

func TestSampleDirichletInvalid(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	if _, err := SampleDirichlet(rng, nil); err == nil {
		t.Error("empty alpha should error")
	}
	if _, err := SampleDirichlet(rng, []float64{1, 0}); err == nil {
		t.Error("zero alpha entry should error")
	}
}

func TestSampleSimplexUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	v := SampleSimplexUniform(rng, 5)
	var sum float64
	for _, x := range v {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 || len(v) != 5 {
		t.Errorf("bad simplex sample %v", v)
	}
}

func TestNormalize(t *testing.T) {
	v := Normalize([]float64{1, 3})
	if math.Abs(v[0]-0.25) > 1e-12 {
		t.Error("Normalize wrong")
	}
	// Degenerate input falls back to uniform.
	u := Normalize([]float64{0, 0, 0})
	for _, x := range u {
		if math.Abs(x-1.0/3) > 1e-12 {
			t.Error("zero-sum fallback not uniform")
		}
	}
	nanV := Normalize([]float64{math.NaN(), 1})
	for _, x := range nanV {
		if math.Abs(x-0.5) > 1e-12 {
			t.Error("NaN fallback not uniform")
		}
	}
}

func TestFloorAndNormalizeProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		v := []float64{math.Abs(math.Mod(a, 10)), math.Abs(math.Mod(b, 10)), math.Abs(math.Mod(c, 10))}
		out := FloorAndNormalize(v, 1e-9)
		var sum float64
		for _, x := range out {
			// Entries are floored at eps before normalizing; with the total
			// bounded by 30+3eps, every entry stays ≥ eps/31 > 3e-11.
			if x < 3e-11 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestArgMax(t *testing.T) {
	if ArgMax([]float64{0.1, 0.7, 0.2}) != 1 {
		t.Error("ArgMax wrong")
	}
	if ArgMax([]float64{3, 3, 1}) != 0 {
		t.Error("ArgMax should pick first on ties")
	}
	if ArgMax(nil) != -1 {
		t.Error("ArgMax(nil) should be -1")
	}
}

func BenchmarkSampleDirichletK4(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	alpha := []float64{1, 1, 1, 1}
	for i := 0; i < b.N; i++ {
		if _, err := SampleDirichlet(rng, alpha); err != nil {
			b.Fatal(err)
		}
	}
}
