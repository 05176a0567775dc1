// Package stats provides the probability distributions and samplers the
// GenClus reproduction needs: Gaussian and categorical samplers for the
// synthetic generators, Dirichlet sampling (via the Marsaglia–Tsang gamma
// sampler) for soft-membership initialization and for the generators, and
// the normalization and arg-max helpers the E-step and the cluster
// labelling use. The component densities of the attribute mixtures (paper
// §3.2) are evaluated inline by the fitting code, which hoists their logs.
//
// All randomness flows through explicit *rand.Rand instances so that every
// experiment in the harness is reproducible from a seed.
package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Gaussian is a univariate normal distribution N(Mu, Sigma²).
type Gaussian struct {
	Mu    float64
	Sigma float64 // standard deviation, > 0
}

// Sample draws one value.
func (g Gaussian) Sample(rng *rand.Rand) float64 {
	return g.Mu + g.Sigma*rng.NormFloat64()
}

// Categorical is a discrete distribution over {0, …, K−1}.
type Categorical struct {
	P []float64 // probabilities, sum to 1
}

// NewCategorical normalizes the given non-negative weights into a
// distribution. Errors if the weights are empty, negative, or all zero.
func NewCategorical(weights []float64) (Categorical, error) {
	if len(weights) == 0 {
		return Categorical{}, fmt.Errorf("stats: empty categorical")
	}
	var sum float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return Categorical{}, fmt.Errorf("stats: invalid categorical weight %v", w)
		}
		sum += w
	}
	if sum <= 0 {
		return Categorical{}, fmt.Errorf("stats: categorical weights sum to zero")
	}
	p := make([]float64, len(weights))
	for i, w := range weights {
		p[i] = w / sum
	}
	return Categorical{P: p}, nil
}

// Sample draws an index according to P.
func (c Categorical) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	var cum float64
	for i, p := range c.P {
		cum += p
		if u < cum {
			return i
		}
	}
	return len(c.P) - 1 // guard against floating-point shortfall
}

// SampleGamma draws from Gamma(shape, 1) using the Marsaglia–Tsang (2000)
// squeeze method, with the standard boost for shape < 1. The Go standard
// library has no gamma sampler; Dirichlet sampling needs one.
func SampleGamma(rng *rand.Rand, shape float64) float64 {
	if shape <= 0 || math.IsNaN(shape) {
		return math.NaN()
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) · U^{1/a}.
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return SampleGamma(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// SampleDirichlet draws a point on the simplex from Dirichlet(alpha) by
// normalizing independent gamma draws. All alpha entries must be positive.
func SampleDirichlet(rng *rand.Rand, alpha []float64) ([]float64, error) {
	if len(alpha) == 0 {
		return nil, fmt.Errorf("stats: empty Dirichlet parameter")
	}
	out := make([]float64, len(alpha))
	var sum float64
	for i, a := range alpha {
		if !(a > 0) {
			return nil, fmt.Errorf("stats: Dirichlet alpha[%d] = %v, want > 0", i, a)
		}
		g := SampleGamma(rng, a)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Vanishingly unlikely; fall back to uniform.
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out, nil
	}
	for i := range out {
		out[i] /= sum
	}
	return out, nil
}

// SampleSimplexUniform draws uniformly from the K-simplex (Dirichlet(1,…,1)).
func SampleSimplexUniform(rng *rand.Rand, k int) []float64 {
	alpha := make([]float64, k)
	for i := range alpha {
		alpha[i] = 1
	}
	v, _ := SampleDirichlet(rng, alpha)
	return v
}

// Normalize scales the slice in place so it sums to 1 and returns it. If the
// sum is zero or not finite the slice is set to the uniform distribution —
// the safe fallback inside EM iterations where a row can lose all mass.
func Normalize(v []float64) []float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		u := 1 / float64(len(v))
		for i := range v {
			v[i] = u
		}
		return v
	}
	for i := range v {
		v[i] /= sum
	}
	return v
}

// FloorAndNormalize floors every entry at eps, then renormalizes. The core
// package applies this to every Θ row so that log θ (paper Eq. 6) is always
// finite.
func FloorAndNormalize(v []float64, eps float64) []float64 {
	for i := range v {
		if v[i] < eps || math.IsNaN(v[i]) {
			v[i] = eps
		}
	}
	return Normalize(v)
}

// ArgMax returns the index of the largest element (first on ties), or −1 for
// an empty slice. Used to harden soft memberships into cluster labels.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best, bestV := 0, v[0]
	for i := 1; i < len(v); i++ {
		if v[i] > bestV {
			best, bestV = i, v[i]
		}
	}
	return best
}
