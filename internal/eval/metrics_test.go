package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"genclus/internal/hin"
)

func TestNMIIdenticalPartitions(t *testing.T) {
	labels := []int{0, 0, 1, 1, 2, 2, 0, 1}
	got, err := NMI(labels, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("NMI(x,x) = %v, want 1", got)
	}
}

func TestNMIPermutationInvariance(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2, 2}
	renamed := []int{2, 2, 0, 0, 1, 1} // same partition, different names
	got, err := NMI(renamed, truth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("NMI invariant under renaming = %v, want 1", got)
	}
}

func TestNMIIndependentPartitions(t *testing.T) {
	// A perfectly crossed design has zero mutual information.
	pred := []int{0, 0, 1, 1, 0, 0, 1, 1}
	truth := []int{0, 1, 0, 1, 0, 1, 0, 1}
	got, err := NMI(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 1e-12 {
		t.Errorf("NMI of independent partitions = %v, want 0", got)
	}
}

func TestNMISingleClusterConvention(t *testing.T) {
	got, err := NMI([]int{0, 0, 0}, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("single-cluster NMI = %v, want 0", got)
	}
}

func TestNMIErrors(t *testing.T) {
	if _, err := NMI([]int{0}, []int{0, 1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := NMI(nil, nil); err == nil {
		t.Error("empty should error")
	}
}

func TestNMIRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(100)
		pred := make([]int, n)
		truth := make([]int, n)
		for i := range pred {
			pred[i] = rng.Intn(4)
			truth[i] = rng.Intn(4)
		}
		v, err := NMI(pred, truth)
		if err != nil {
			return false
		}
		return v >= 0 && v <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNMISymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(3)
			b[i] = rng.Intn(3)
		}
		x, err1 := NMI(a, b)
		y, err2 := NMI(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(x-y) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNMIOnSubset(t *testing.T) {
	pred := []int{0, 1, 0, 1, 0}
	truth := map[int]int{0: 1, 1: 0, 3: 0}
	got, err := NMIOnSubset([]int{0, 1, 3}, pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	// pred on subset = [0,1,1], truth = [1,0,0]: same partition renamed.
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("subset NMI = %v", got)
	}
	if _, err := NMIOnSubset([]int{4}, pred, truth); err == nil {
		t.Error("missing truth label should error")
	}
	if _, err := NMIOnSubset(nil, pred, truth); err == nil {
		t.Error("empty subset should error")
	}
	if _, err := NMIOnSubset([]int{9}, pred, map[int]int{9: 0}); err == nil {
		t.Error("out-of-range prediction index should error")
	}
}

func TestHardLabels(t *testing.T) {
	theta := [][]float64{{0.9, 0.1}, {0.2, 0.8}, {0.5, 0.5}}
	got := HardLabels(theta)
	if got[0] != 0 || got[1] != 1 || got[2] != 0 {
		t.Errorf("HardLabels = %v", got)
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine([]float64{1, 0}, []float64{1, 0}); math.Abs(got-1) > 1e-12 {
		t.Errorf("cos of identical = %v", got)
	}
	if got := Cosine([]float64{1, 0}, []float64{0, 1}); math.Abs(got) > 1e-12 {
		t.Errorf("cos of orthogonal = %v", got)
	}
	if got := Cosine([]float64{0, 0}, []float64{1, 0}); got != 0 {
		t.Errorf("cos with zero vector = %v", got)
	}
}

func TestNegEuclidean(t *testing.T) {
	if got := NegEuclidean([]float64{0.5, 0.5}, []float64{0.5, 0.5}); got != 0 {
		t.Errorf("self distance = %v", got)
	}
	if got := NegEuclidean([]float64{1, 0}, []float64{0, 1}); math.Abs(got+math.Sqrt2) > 1e-12 {
		t.Errorf("corner distance = %v", got)
	}
}

func TestNegCrossEntropySelfOptimal(t *testing.T) {
	// Over candidates, the query's own distribution does NOT necessarily
	// maximize −H(θ_j, θ_i); a point mass on the query's argmax does. Verify
	// the asymmetric behaviour the paper exploits.
	query := []float64{0.7, 0.2, 0.1}
	point := []float64{1, 0, 0}
	self := NegCrossEntropy(query, query)
	pointScore := NegCrossEntropy(query, point)
	if pointScore <= self {
		t.Errorf("point-mass candidate should score higher: %v vs %v", pointScore, self)
	}
	// Asymmetry of the function itself.
	a := []float64{0.8, 0.1, 0.1}
	b := []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	if NegCrossEntropy(a, b) == NegCrossEntropy(b, a) {
		t.Error("cross entropy similarity should be asymmetric")
	}
}

func TestAveragePrecision(t *testing.T) {
	// Perfect ranking.
	if got := AveragePrecision([]int{1, 2, 3, 4}, map[int]bool{1: true, 2: true}); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect AP = %v", got)
	}
	// Relevant at ranks 2 and 4: AP = (1/2 + 2/4)/2 = 0.5.
	if got := AveragePrecision([]int{9, 1, 8, 2}, map[int]bool{1: true, 2: true}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("mixed AP = %v", got)
	}
	// No relevant.
	if got := AveragePrecision([]int{1, 2}, nil); got != 0 {
		t.Errorf("empty-relevant AP = %v", got)
	}
	// Relevant item missing from ranking contributes zero precision mass.
	if got := AveragePrecision([]int{1}, map[int]bool{1: true, 99: true}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("missing-relevant AP = %v", got)
	}
}

func TestAveragePrecisionWorstCase(t *testing.T) {
	// Single relevant item ranked last of n: AP = 1/n.
	ranked := []int{5, 4, 3, 2, 1}
	got := AveragePrecision(ranked, map[int]bool{1: true})
	if math.Abs(got-0.2) > 1e-12 {
		t.Errorf("last-place AP = %v", got)
	}
}

// linkPredNet builds a bipartite network where group-0 sources link to
// target t0 and group-1 sources link to t1.
func linkPredNet(t *testing.T) (*hin.Network, [][]float64) {
	t.Helper()
	b := hin.NewBuilder()
	b.AddObject("s0", "src")
	b.AddObject("s1", "src")
	b.AddObject("t0", "dst")
	b.AddObject("t1", "dst")
	b.AddLink("s0", "t0", "points", 1)
	b.AddLink("s1", "t1", "points", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	theta := make([][]float64, net.NumObjects())
	set := func(id string, v []float64) {
		idx, _ := net.IndexOf(id)
		theta[idx] = v
	}
	set("s0", []float64{0.9, 0.1})
	set("s1", []float64{0.1, 0.9})
	set("t0", []float64{0.85, 0.15})
	set("t1", []float64{0.15, 0.85})
	return net, theta
}

func TestLinkPredictionMAPPerfect(t *testing.T) {
	net, theta := linkPredNet(t)
	for _, sim := range Similarities() {
		got, err := LinkPredictionMAP(net, theta, "points", sim)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-1) > 1e-12 {
			t.Errorf("%s: MAP = %v, want 1 (memberships align with links)", sim.Name, got)
		}
	}
}

func TestLinkPredictionMAPAntiAligned(t *testing.T) {
	net, theta := linkPredNet(t)
	// Swap source memberships so similarity points to the wrong target:
	// each query has 2 candidates, correct one ranked second → AP = 1/2.
	s0, _ := net.IndexOf("s0")
	s1, _ := net.IndexOf("s1")
	theta[s0], theta[s1] = theta[s1], theta[s0]
	got, err := LinkPredictionMAP(net, theta, "points", Similarities()[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("anti-aligned MAP = %v, want 0.5", got)
	}
}

func TestLinkPredictionMAPErrors(t *testing.T) {
	net, theta := linkPredNet(t)
	if _, err := LinkPredictionMAP(net, theta, "ghost", Similarities()[0]); err == nil {
		t.Error("unknown relation should error")
	}
	if _, err := LinkPredictionMAP(net, theta[:1], "points", Similarities()[0]); err == nil {
		t.Error("short theta should error")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(s.Mean-5) > 1e-12 || math.Abs(s.Std-2) > 1e-12 || s.N != 8 {
		t.Errorf("Summarize = %+v", s)
	}
	empty := Summarize(nil)
	if !math.IsNaN(empty.Mean) {
		t.Error("empty Summarize should be NaN")
	}
}

func TestSimilaritiesOrder(t *testing.T) {
	sims := Similarities()
	if len(sims) != 3 {
		t.Fatal("expected 3 similarity functions")
	}
	if sims[0].Name != "cos(θi,θj)" || sims[2].Name != "-H(θj,θi)" {
		t.Errorf("similarity order = %v, %v, %v", sims[0].Name, sims[1].Name, sims[2].Name)
	}
}

// TestNMIRepeatable: NMI folds its sums in sorted-key order, so repeated
// calls on the same labelings are bit-equal. Many small clusters make the
// result sensitive to summation order, which is what a map-order fold
// would randomize.
func TestNMIRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pred := make([]int, 3000)
	truth := make([]int, len(pred))
	for i := range pred {
		pred[i] = rng.Intn(40)
		truth[i] = (pred[i] + rng.Intn(7)) % 40
	}
	first, err := NMI(pred, truth)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got, err := NMI(pred, truth)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("call %d: NMI = %v (%#x), first call %v (%#x)", i, got, math.Float64bits(got), first, math.Float64bits(first))
		}
	}
}
