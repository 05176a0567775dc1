package baselines

import (
	"fmt"
	"math"
	"math/rand"

	"genclus/internal/hin"
)

// kmeansIters caps the Lloyd iterations of one k-means run.
const kmeansIters = 100

// KMeansOptions configures the Lloyd's-algorithm baseline.
type KMeansOptions struct {
	K        int
	Restarts int // independent restarts; best inertia wins
	Seed     int64
	// RandomInit picks initial centers uniformly from the points instead of
	// k-means++ seeding. The paper's 2011-era k-means baseline behaves this
	// way ("very sensitive to the number of observations… especially for
	// Setting 2"); the experiment harness sets it to reproduce that
	// sensitivity, while library users get k-means++ by default.
	RandomInit bool
}

// DefaultKMeansOptions mirrors the experiment defaults.
func DefaultKMeansOptions(k int) KMeansOptions {
	return KMeansOptions{K: k, Restarts: 5, Seed: 1}
}

// PaperKMeansOptions reproduces the era-typical baseline the paper used:
// one random-initialized run.
func PaperKMeansOptions(k int) KMeansOptions {
	return KMeansOptions{K: k, Restarts: 1, Seed: 1, RandomInit: true}
}

// KMeans clusters the points (rows) into K groups with k-means++
// initialization and Lloyd iterations, returning hard labels (wrapped into a
// one-hot Result for interface parity with the soft baselines).
func KMeans(points [][]float64, opts KMeansOptions) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("baselines: KMeans on empty point set")
	}
	if opts.K < 2 || opts.K > n {
		return nil, fmt.Errorf("baselines: KMeans K = %d out of range 2..%d", opts.K, n)
	}
	if opts.Restarts < 1 {
		return nil, fmt.Errorf("baselines: KMeans needs positive Restarts")
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("baselines: point %d has dim %d, want %d", i, len(p), dim)
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	bestInertia := math.Inf(1)
	var bestLabels []int
	for restart := 0; restart < opts.Restarts; restart++ {
		labels, inertia := kmeansOnce(points, opts.K, rng, opts.RandomInit)
		if inertia < bestInertia {
			bestInertia = inertia
			bestLabels = labels
		}
	}
	return &Result{Labels: bestLabels, Theta: oneHot(bestLabels, opts.K, 1e-9)}, nil
}

func kmeansOnce(points [][]float64, k int, rng *rand.Rand, randomInit bool) ([]int, float64) {
	n := len(points)
	dim := len(points[0])
	var centers [][]float64
	if randomInit {
		centers = randomCenterInit(points, k, rng)
	} else {
		centers = kmeansPlusPlusInit(points, k, rng)
	}
	labels := make([]int, n)
	counts := make([]int, k)

	for it := 0; it < kmeansIters; it++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centers {
				if d := dist2(p, centers[c]); d < bestD {
					best, bestD = c, d
				}
			}
			if labels[i] != best {
				labels[i] = best
				changed = true
			}
		}
		// Recompute centers.
		for c := range centers {
			for d := 0; d < dim; d++ {
				centers[c][d] = 0
			}
			counts[c] = 0
		}
		for i, p := range points {
			c := labels[i]
			counts[c]++
			for d := 0; d < dim; d++ {
				centers[c][d] += p[d]
			}
		}
		for c := range centers {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(centers[c], points[rng.Intn(n)])
				continue
			}
			for d := 0; d < dim; d++ {
				centers[c][d] /= float64(counts[c])
			}
		}
		if !changed {
			break
		}
	}
	var inertia float64
	for i, p := range points {
		inertia += dist2(p, centers[labels[i]])
	}
	return labels, inertia
}

func randomCenterInit(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = append([]float64(nil), points[rng.Intn(len(points))]...)
	}
	return centers
}

func kmeansPlusPlusInit(points [][]float64, k int, rng *rand.Rand) [][]float64 {
	n := len(points)
	dim := len(points[0])
	centers := make([][]float64, 0, k)
	first := points[rng.Intn(n)]
	centers = append(centers, append([]float64(nil), first...))
	d2 := make([]float64, n)
	for len(centers) < k {
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centers {
				if d := dist2(p, c); d < best {
					best = d
				}
			}
			d2[i] = best
			total += best
		}
		var chosen int
		if total == 0 {
			chosen = rng.Intn(n) // all points coincide with centers
		} else {
			u := rng.Float64() * total
			var cum float64
			chosen = n - 1
			for i, d := range d2 {
				cum += d
				if u < cum {
					chosen = i
					break
				}
			}
		}
		c := make([]float64, dim)
		copy(c, points[chosen])
		centers = append(centers, c)
	}
	return centers
}

func dist2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// InterpolateNumeric produces the "regular d-dimensional attribute" the
// paper feeds to k-means and spectral clustering (§5.2.1): attributes the
// object observes itself are summarized by the mean of its own
// observations; missing attributes are interpolated as the mean of the
// observations of its graph neighbors (both link directions), falling back
// to the attribute's global mean when the whole neighborhood is blind.
//
// Keeping the object's own dimension limited to its own observations is
// what makes this baseline "very sensitive to the number of observations"
// (§5.2.1): with a single observation per sensor, the own dimension is one
// noisy draw from the sensor's pattern mixture.
func InterpolateNumeric(net *hin.Network, attrNames []string) ([][]float64, error) {
	if net == nil {
		return nil, fmt.Errorf("baselines: nil network")
	}
	attrs := make([]int, 0, len(attrNames))
	for _, name := range attrNames {
		a, ok := net.AttrID(name)
		if !ok {
			return nil, fmt.Errorf("baselines: attribute %q not in network", name)
		}
		if net.Attr(a).Kind != hin.Numeric {
			return nil, fmt.Errorf("baselines: attribute %q is not numeric", name)
		}
		attrs = append(attrs, a)
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("baselines: no attributes to interpolate")
	}
	n := net.NumObjects()
	out := make([][]float64, n)
	for v := range out {
		out[v] = make([]float64, len(attrs))
	}
	for d, a := range attrs {
		// Global mean fallback.
		var gSum float64
		var gCount int
		for v := 0; v < n; v++ {
			for _, x := range net.NumericObs(a, v) {
				gSum += x
				gCount++
			}
		}
		var globalMean float64
		if gCount > 0 {
			globalMean = gSum / float64(gCount)
		}
		for v := 0; v < n; v++ {
			var sum float64
			var count int
			add := func(obj int) {
				for _, x := range net.NumericObs(a, obj) {
					sum += x
					count++
				}
			}
			add(v)
			if count == 0 {
				// Missing attribute: interpolate from the neighborhood.
				for _, e := range net.OutEdges(v) {
					add(e.To)
				}
				from, _, _ := net.InLinks(v)
				for _, u := range from {
					add(u)
				}
			}
			if count > 0 {
				out[v][d] = sum / float64(count)
			} else {
				out[v][d] = globalMean
			}
		}
	}
	return out, nil
}

// Standardize z-scores each feature column in place (mean 0, stddev 1), as
// §5.2.1 describes for the spectral baseline, and returns the input.
// Constant columns are left centered at 0.
func Standardize(points [][]float64) [][]float64 {
	if len(points) == 0 {
		return points
	}
	dim := len(points[0])
	n := float64(len(points))
	for d := 0; d < dim; d++ {
		var mean float64
		for _, p := range points {
			mean += p[d]
		}
		mean /= n
		var ss float64
		for _, p := range points {
			diff := p[d] - mean
			ss += diff * diff
		}
		std := math.Sqrt(ss / n)
		for _, p := range points {
			p[d] -= mean
			if std > 0 {
				p[d] /= std
			}
		}
	}
	return points
}
