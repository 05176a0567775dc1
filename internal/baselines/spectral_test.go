package baselines

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"genclus/internal/datagen"
	"genclus/internal/hin"
	"genclus/internal/linalg"
)

// denseSimilarity stores S = ½·B̂ + ½·Ĝ as a dense n × n matrix, the
// reference the operator form must match. It returns S, the modularity
// matrix B, max|B|, max|G| and the Gershgorin shift max_i Σ_j |S_ij|.
func denseSimilarity(net *hin.Network, features [][]float64) (combined, mod *linalg.Matrix, maxB, maxG, shift float64) {
	n := net.NumObjects()
	combined = linalg.NewMatrix(n, n)
	mod = linalg.NewMatrix(n, n)

	adj := linalg.NewMatrix(n, n)
	deg := make([]float64, n)
	var twoM float64
	for _, e := range net.Edges() {
		w := e.Weight / 2
		adj.Add(e.From, e.To, w)
		adj.Add(e.To, e.From, w)
		deg[e.From] += w
		deg[e.To] += w
		twoM += e.Weight
	}
	if twoM > 0 {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				mod.Set(i, j, adj.At(i, j)-deg[i]*deg[j]/twoM)
			}
		}
		scaled := cloneMatrix(mod)
		if maxB = maxAbs(scaled); maxB > 0 {
			scaled.Scale(0.5 / maxB)
		}
		combined = addMatrix(combined, scaled)
	}

	gram := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			var dot float64
			for d := range features[i] {
				dot += features[i][d] * features[j][d]
			}
			gram.Set(i, j, dot)
			gram.Set(j, i, dot)
		}
	}
	if maxG = maxAbs(gram); maxG > 0 {
		gram.Scale(0.5 / maxG)
	}
	combined = addMatrix(combined, gram)

	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			rowSum += math.Abs(combined.At(i, j))
		}
		if rowSum > shift {
			shift = rowSum
		}
	}
	return combined, mod, maxB, maxG, shift
}

func cloneMatrix(m *linalg.Matrix) *linalg.Matrix {
	out := linalg.NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

func addMatrix(a, b *linalg.Matrix) *linalg.Matrix {
	out := cloneMatrix(a)
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

func maxAbs(m *linalg.Matrix) float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// multiLinkNetwork has the same links in two relations and in both
// directions, repeated links within a relation, and self-loops, all with
// random weights, so that every entry of A sums several terms and the
// order of the sum shows in its bits.
func multiLinkNetwork(t *testing.T) (*hin.Network, [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	b := hin.NewBuilder()
	const n = 7
	ids := make([]string, n)
	for i := range ids {
		ids[i] = string(rune('a' + i))
		b.AddObject(ids[i], "t")
	}
	for k := 0; k < 80; k++ {
		from, to := rng.Intn(n), rng.Intn(n)
		rel := []string{"r", "s"}[rng.Intn(2)]
		b.AddLink(ids[from], ids[to], rel, 0.1+rng.Float64())
		if k%3 == 0 {
			b.AddLink(ids[to], ids[from], rel, 0.1+rng.Float64())
		}
	}
	for _, id := range ids[:3] {
		b.AddLink(id, id, "r", 0.1+rng.Float64())
		b.AddLink(id, id, "s", 0.1+rng.Float64())
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	feats := make([][]float64, n)
	for i := range feats {
		feats[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	return net, feats
}

func weatherFeatures(t testing.TB, cfg datagen.WeatherConfig) (*hin.Network, [][]float64) {
	t.Helper()
	ds, err := datagen.Weather(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feats, err := InterpolateNumeric(ds.Net, []string{datagen.AttrTemperature, datagen.AttrPrecipitation})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Net, Standardize(feats)
}

// TestSimilarityMatchesDense checks the operator form of S against its
// dense build: the normalizers and the shift bit for bit, every row of B
// bit for bit, and S·x to 1e-12 relative.
func TestSimilarityMatchesDense(t *testing.T) {
	weatherNet, weatherFeats := weatherFeatures(t, datagen.WeatherSetting1(80, 80, 5, 9))
	multiNet, multiFeats := multiLinkNetwork(t)
	b := hin.NewBuilder()
	for _, id := range []string{"a", "b", "c", "d"} {
		b.AddObject(id, "t")
	}
	linklessNet, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	linklessFeats := [][]float64{{1, -2}, {0.5, 3}, {-1, 0}, {2, 2}}

	for _, tc := range []struct {
		name  string
		net   *hin.Network
		feats [][]float64
	}{
		{"weather", weatherNet, weatherFeats},
		{"multi-link", multiNet, multiFeats},
		{"no-links", linklessNet, linklessFeats},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dense, mod, maxB, maxG, shift := denseSimilarity(tc.net, tc.feats)
			s := newSimilarity(tc.net, tc.feats)
			if s.maxB != maxB || s.maxG != maxG || s.shift != shift {
				t.Fatalf("max|B|, max|G|, shift = %v, %v, %v; dense %v, %v, %v",
					s.maxB, s.maxG, s.shift, maxB, maxG, shift)
			}
			n := tc.net.NumObjects()
			if s.twoM > 0 {
				row := make([]float64, n)
				for i := 0; i < n; i++ {
					s.modularityRow(i, row)
					for j, v := range row {
						if math.Float64bits(v) != math.Float64bits(mod.At(i, j)) {
							t.Fatalf("B[%d][%d] = %v, dense %v", i, j, v, mod.At(i, j))
						}
					}
				}
			}
			rng := rand.New(rand.NewSource(3))
			x, y := make([]float64, n), make([]float64, n)
			for trial := 0; trial < 5; trial++ {
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				s.apply(y, x)
				var diff, size float64
				for i := 0; i < n; i++ {
					var want float64
					for j := 0; j < n; j++ {
						want += dense.At(i, j) * x[j]
					}
					diff = math.Max(diff, math.Abs(y[i]-want))
					size = math.Max(size, math.Abs(want))
				}
				if diff > 1e-12*size {
					t.Fatalf("‖S·x − dense S·x‖∞ = %v, ‖dense S·x‖∞ = %v", diff, size)
				}
			}
		})
	}
}

// TestSpectralCombineMemory pins SpectralCombine to O(n) memory at
// n = 2,000 objects, where one n × n matrix alone takes 32 MB.
func TestSpectralCombineMemory(t *testing.T) {
	net, feats := weatherFeatures(t, datagen.WeatherSetting1(1000, 1000, 5, 1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := SpectralCombine(net, feats, 4, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limit = 16 << 20
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("SpectralCombine at n = %d allocated %d bytes", net.NumObjects(), alloc)
	if alloc > limit {
		t.Errorf("SpectralCombine at n = %d allocated %d bytes, want ≤ %d", net.NumObjects(), alloc, limit)
	}
}
