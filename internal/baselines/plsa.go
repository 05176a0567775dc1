// Package baselines implements the four comparison methods of the paper's
// §5.2: NetPLSA (Mei et al., WWW'08) and iTopicModel (Sun et al., ICDM'09)
// for the text networks, and k-means (with neighbor-mean interpolation) and
// a Shiga-style spectral method combining modularity with attribute
// similarity for the numeric networks.
//
// As the paper prescribes, none of these leverages typed links: every
// relation is treated as equally important (strength 1).
package baselines

import (
	"fmt"
	"math/rand"

	"genclus/internal/hin"
	"genclus/internal/stats"
)

// Result is a baseline clustering outcome. Theta is always populated; for
// the hard methods (k-means, spectral) it is the one-hot encoding of Labels,
// matching §5.2.2's remark that those baselines "can only output hard
// clusters".
type Result struct {
	Theta  [][]float64
	Labels []int
}

// The topic-model baselines' settings, as the experiments run them.
const (
	plsaIters   = 60   // EM iterations
	plsaLambda  = 0.5  // network coupling weight (meaning differs per method)
	plsaSmooth  = 1e-3 // Laplace smoothing for β
	plsaEpsilon = 1e-9 // Θ floor
)

// plsaAttribute checks the arguments of the topic models and returns the
// attribute they model: the network's first categorical attribute.
func plsaAttribute(net *hin.Network, k int) (int, error) {
	if net == nil {
		return 0, fmt.Errorf("baselines: nil network")
	}
	if k < 2 {
		return 0, fmt.Errorf("baselines: K = %d, want ≥ 2", k)
	}
	for a := 0; a < net.NumAttrs(); a++ {
		if net.Attr(a).Kind == hin.Categorical {
			return a, nil
		}
	}
	return 0, fmt.Errorf("baselines: network has no categorical attribute")
}

// plsaState carries the shared PLSA machinery.
type plsaState struct {
	net   *hin.Network
	attr  int
	k     int
	theta [][]float64
	beta  [][]float64
}

func newPLSAState(net *hin.Network, attr, k int, seed int64) *plsaState {
	rng := rand.New(rand.NewSource(seed))
	n := net.NumObjects()
	vocab := net.Attr(attr).VocabSize
	s := &plsaState{net: net, attr: attr, k: k}
	s.theta = make([][]float64, n)
	for v := 0; v < n; v++ {
		s.theta[v] = stats.SampleSimplexUniform(rng, k)
		stats.FloorAndNormalize(s.theta[v], plsaEpsilon)
	}
	s.beta = make([][]float64, k)
	for k := range s.beta {
		row := make([]float64, vocab)
		for l := range row {
			row[l] = 1 + 0.5*rng.Float64()
		}
		stats.Normalize(row)
		s.beta[k] = row
	}
	return s
}

// plsaEStep computes, for object v, the attribute evidence vector
// Σ_l c_vl·p(z = k | v, l) and accumulates β statistics. Returns the total
// term mass (0 when v has no text).
func (s *plsaState) plsaEvidence(v int, out []float64, betaStat [][]float64) float64 {
	tcs := s.net.TermCounts(s.attr, v)
	if len(tcs) == 0 {
		return 0
	}
	resp := make([]float64, s.k)
	var mass float64
	for _, tc := range tcs {
		var sum float64
		for k := 0; k < s.k; k++ {
			resp[k] = s.theta[v][k] * s.beta[k][tc.Term]
			sum += resp[k]
		}
		if sum <= 0 {
			continue
		}
		inv := tc.Count / sum
		for k := 0; k < s.k; k++ {
			r := resp[k] * inv
			out[k] += r
			if betaStat != nil {
				betaStat[k][tc.Term] += r
			}
		}
		mass += tc.Count
	}
	return mass
}

func (s *plsaState) updateBeta(betaStat [][]float64) {
	vocab := len(s.beta[0])
	for k := 0; k < s.k; k++ {
		var sum float64
		for l := 0; l < vocab; l++ {
			sum += betaStat[k][l] + plsaSmooth
		}
		if sum <= 0 {
			continue
		}
		for l := 0; l < vocab; l++ {
			s.beta[k][l] = (betaStat[k][l] + plsaSmooth) / sum
		}
	}
}

func (s *plsaState) newBetaStat() [][]float64 {
	vocab := len(s.beta[0])
	st := make([][]float64, s.k)
	for k := range st {
		st[k] = make([]float64, vocab)
	}
	return st
}

// neighborAverage returns the weight-normalized average membership of v's
// graph neighbors (both directions, all relations treated equally — the
// homogeneous-links assumption the paper imposes on the baselines). Returns
// false when v has no neighbors.
func neighborAverage(net *hin.Network, theta [][]float64, v int, out []float64) bool {
	for i := range out {
		out[i] = 0
	}
	var wSum float64
	for _, e := range net.OutEdges(v) {
		for i := range out {
			out[i] += e.Weight * theta[e.To][i]
		}
		wSum += e.Weight
	}
	from, _, weights := net.InLinks(v)
	for j, u := range from {
		w := weights[j]
		for i := range out {
			out[i] += w * theta[u][i]
		}
		wSum += w
	}
	if wSum == 0 {
		return false
	}
	for i := range out {
		out[i] /= wSum
	}
	return true
}

// NetPLSA implements the network-regularized PLSA of Mei et al. (WWW'08):
// standard PLSA EM steps interleaved with a graph smoothing step
// θ_v ← (1−λ)·θ_v + λ·avg_{u∼v} θ_u that implements the harmonic
// regularizer. Objects without text keep their previous θ in the PLSA step
// and only move through smoothing.
func NetPLSA(net *hin.Network, k int, seed int64) (*Result, error) {
	attr, err := plsaAttribute(net, k)
	if err != nil {
		return nil, err
	}
	s := newPLSAState(net, attr, k, seed)
	n := net.NumObjects()
	evidence := make([]float64, k)
	smooth := make([]float64, k)

	for it := 0; it < plsaIters; it++ {
		betaStat := s.newBetaStat()
		newTheta := make([][]float64, n)
		for v := 0; v < n; v++ {
			for i := range evidence {
				evidence[i] = 0
			}
			mass := s.plsaEvidence(v, evidence, betaStat)
			row := make([]float64, k)
			if mass > 0 {
				copy(row, evidence)
				stats.FloorAndNormalize(row, plsaEpsilon)
			} else {
				copy(row, s.theta[v]) // no text: PLSA has no opinion
			}
			newTheta[v] = row
		}
		s.updateBeta(betaStat)
		// Graph regularization sweep over the *new* memberships.
		for v := 0; v < n; v++ {
			if neighborAverage(net, newTheta, v, smooth) {
				for i := range newTheta[v] {
					newTheta[v][i] = (1-plsaLambda)*newTheta[v][i] + plsaLambda*smooth[i]
				}
				stats.FloorAndNormalize(newTheta[v], plsaEpsilon)
			}
		}
		s.theta = newTheta
	}
	return resultFromTheta(s.theta), nil
}

// ITopicModel implements the network-integrated topic model of Sun et al.
// (ICDM'09) in the formulation the GenClus paper compares against: the
// membership update blends the PLSA evidence with the (unweighted-strength)
// neighbor memberships inside the same M-step —
//
//	θ_vk ∝ Σ_l c_vl·p(z=k|v,l) + λ·Σ_{e∼v} w(e)·θ_uk
//
// which is exactly GenClus's Eq. 10 with every γ(r) frozen at λ. Objects
// without text are set to the pure neighbor average.
func ITopicModel(net *hin.Network, k int, seed int64) (*Result, error) {
	attr, err := plsaAttribute(net, k)
	if err != nil {
		return nil, err
	}
	s := newPLSAState(net, attr, k, seed)
	n := net.NumObjects()
	row := make([]float64, k)

	for it := 0; it < plsaIters; it++ {
		betaStat := s.newBetaStat()
		newTheta := make([][]float64, n)
		for v := 0; v < n; v++ {
			for i := range row {
				row[i] = 0
			}
			s.plsaEvidence(v, row, betaStat)
			// Link term with uniform strengths.
			for _, e := range net.OutEdges(v) {
				g := plsaLambda * e.Weight
				tu := s.theta[e.To]
				for i := range row {
					row[i] += g * tu[i]
				}
			}
			dst := make([]float64, k)
			var mass float64
			for _, x := range row {
				mass += x
			}
			if mass > 0 {
				copy(dst, row)
				stats.FloorAndNormalize(dst, plsaEpsilon)
			} else {
				copy(dst, s.theta[v])
			}
			newTheta[v] = dst
		}
		s.updateBeta(betaStat)
		s.theta = newTheta
	}
	return resultFromTheta(s.theta), nil
}

func resultFromTheta(theta [][]float64) *Result {
	labels := make([]int, len(theta))
	for v, row := range theta {
		labels[v] = stats.ArgMax(row)
	}
	return &Result{Theta: theta, Labels: labels}
}

// oneHot converts hard labels into a one-hot membership matrix (with an ε
// floor so downstream similarity functions taking logs stay finite).
func oneHot(labels []int, k int, eps float64) [][]float64 {
	theta := make([][]float64, len(labels))
	for v, lab := range labels {
		row := make([]float64, k)
		for i := range row {
			row[i] = eps
		}
		if lab >= 0 && lab < k {
			row[lab] = 1
		}
		stats.Normalize(row)
		theta[v] = row
	}
	return theta
}
