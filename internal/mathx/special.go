// Package mathx provides the special functions GenClus needs beyond the Go
// standard library: the digamma and trigamma functions used by the
// link-strength Newton step (paper Eqs. 16–17), the log multivariate Beta
// function that is the local partition function of the Dirichlet conditional
// p(θ_i | neighbors) (paper §4.2), and the Shannon entropy.
//
// All functions are pure and safe for concurrent use.
package mathx

import "math"

// Euler–Mascheroni constant, −ψ(1).
const EulerGamma = 0.57721566490153286060651209008240243104215933593992

// Digamma returns ψ(x) = d/dx ln Γ(x) for x > 0.
//
// Implementation: the recurrence ψ(x) = ψ(x+1) − 1/x lifts the argument
// above 6, after which the asymptotic expansion
//
//	ψ(x) ≈ ln x − 1/(2x) − Σ B_{2n}/(2n x^{2n})
//
// with Bernoulli numbers through x⁻¹² is accurate to better than 1e-12.
// For x ≤ 0, NaN is returned (GenClus only evaluates ψ at α ≥ 1).
func Digamma(x float64) float64 {
	if math.IsNaN(x) || x <= 0 {
		return math.NaN()
	}
	var result float64
	for x < 6 {
		result -= 1 / x
		x++
	}
	// Asymptotic series in t = 1/x².
	inv := 1 / x
	inv2 := inv * inv
	result += math.Log(x) - 0.5*inv
	// Coefficients: B2/2=1/12, B4/4=-1/120, B6/6=1/252, B8/8=-1/240,
	// B10/10=1/132, B12/12=-691/32760.
	series := inv2 * (1.0/12 - inv2*(1.0/120-inv2*(1.0/252-inv2*(1.0/240-inv2*(1.0/132-inv2*691.0/32760)))))
	return result - series
}

// Trigamma returns ψ′(x) = d²/dx² ln Γ(x) for x > 0.
//
// Same strategy as Digamma: recurrence ψ′(x) = ψ′(x+1) + 1/x² to x ≥ 6,
// then the asymptotic expansion
//
//	ψ′(x) ≈ 1/x + 1/(2x²) + Σ B_{2n}/x^{2n+1}.
func Trigamma(x float64) float64 {
	if math.IsNaN(x) || x <= 0 {
		return math.NaN()
	}
	var result float64
	for x < 6 {
		result += 1 / (x * x)
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	// 1/x + 1/(2x²) + 1/(6x³) − 1/(30x⁵) + 1/(42x⁷) − 1/(30x⁹) + 5/(66 x¹¹)
	series := inv * (1 + inv*(0.5+inv*(1.0/6-inv2*(1.0/30-inv2*(1.0/42-inv2*(1.0/30-inv2*5.0/66))))))
	return result + series
}

// LogBeta returns the log of the multivariate Beta function,
//
//	ln B(α) = Σ_k ln Γ(α_k) − ln Γ(Σ_k α_k),
//
// the normalizer of a Dirichlet(α) distribution. It is the local partition
// function ln Z_i(γ) in the pseudo-likelihood g′₂ of the paper (§4.2).
// Every α_k must be positive; otherwise NaN is returned.
func LogBeta(alpha []float64) float64 {
	if len(alpha) == 0 {
		return math.NaN()
	}
	var sumLG, sumA float64
	for _, a := range alpha {
		if !(a > 0) {
			return math.NaN()
		}
		sumLG += lgammaPos(a)
		sumA += a
	}
	return sumLG - lgammaPos(sumA)
}

// Entropy returns the Shannon entropy H(p) = −Σ p ln p in nats.
func Entropy(p []float64) float64 {
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}
