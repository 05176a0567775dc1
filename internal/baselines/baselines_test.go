package baselines

import (
	"math"
	"math/rand"
	"testing"

	"genclus/internal/datagen"
	"genclus/internal/eval"
	"genclus/internal/hin"
)

// textNetwork builds a two-topic document network: disjoint vocabulary
// blocks, within-topic citation links, plus optional textless hub objects.
func textNetwork(t *testing.T, perTopic int, withHubs bool, seed int64) (*hin.Network, map[int]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 20})
	n := 2 * perTopic
	ids := make([]string, n)
	labels := make(map[int]int)
	for i := 0; i < n; i++ {
		ids[i] = "d" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		idx := b.AddObject(ids[i], "doc")
		topic := i / perTopic
		labels[idx] = topic
		for w := 0; w < 12; w++ {
			b.AddTermCount(ids[i], "text", topic*10+rng.Intn(10), 1)
		}
	}
	for i := 0; i < n; i++ {
		topic := i / perTopic
		for c := 0; c < 2; c++ {
			j := topic*perTopic + rng.Intn(perTopic)
			if j != i {
				b.AddLink(ids[i], ids[j], "cites", 1)
			}
		}
	}
	if withHubs {
		h0 := b.AddObject("hub0", "hub")
		h1 := b.AddObject("hub1", "hub")
		labels[h0] = 0
		labels[h1] = 1
		for i := 0; i < 4; i++ {
			b.AddLink("hub0", ids[i], "touches", 1)
			b.AddLink(ids[i], "hub0", "touched_by", 1)
			b.AddLink("hub1", ids[perTopic+i], "touches", 1)
			b.AddLink(ids[perTopic+i], "hub1", "touched_by", 1)
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net, labels
}

func subsetNMI(t *testing.T, labels map[int]int, pred []int) float64 {
	t.Helper()
	objs := make([]int, 0, len(labels))
	for v := range labels {
		objs = append(objs, v)
	}
	nmi, err := eval.NMIOnSubset(objs, pred, labels)
	if err != nil {
		t.Fatal(err)
	}
	return nmi
}

func TestNetPLSARecoversTopics(t *testing.T) {
	net, labels := textNetwork(t, 30, false, 3)
	res, err := NetPLSA(net, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nmi := subsetNMI(t, labels, res.Labels); nmi < 0.8 {
		t.Errorf("NetPLSA NMI = %v on separable topics", nmi)
	}
}

func TestITopicModelRecoversTopics(t *testing.T) {
	net, labels := textNetwork(t, 30, false, 4)
	res, err := ITopicModel(net, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nmi := subsetNMI(t, labels, res.Labels); nmi < 0.8 {
		t.Errorf("iTopicModel NMI = %v on separable topics", nmi)
	}
}

func TestITopicModelHandlesTextlessObjects(t *testing.T) {
	// iTopicModel folds neighbor memberships into the same update, so
	// textless hubs should follow their group.
	net, labels := textNetwork(t, 20, true, 5)
	res, err := ITopicModel(net, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := net.IndexOf("hub0")
	h1, _ := net.IndexOf("hub1")
	if res.Labels[h0] == res.Labels[h1] {
		t.Error("hubs of different topics should separate")
	}
	d0, _ := net.IndexOf("da0")
	if res.Labels[h0] != res.Labels[d0] {
		t.Errorf("hub0 label %d should match its documents' label %d", res.Labels[h0], res.Labels[d0])
	}
	_ = labels
}

func TestPLSAThetaValid(t *testing.T) {
	net, _ := textNetwork(t, 15, true, 6)
	for name, run := range map[string]func(*hin.Network, int, int64) (*Result, error){
		"NetPLSA": NetPLSA, "iTopicModel": ITopicModel,
	} {
		res, err := run(net, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Theta) != net.NumObjects() || len(res.Labels) != net.NumObjects() {
			t.Fatalf("%s: result shape wrong", name)
		}
		for v, row := range res.Theta {
			var sum float64
			for _, x := range row {
				if x <= 0 || math.IsNaN(x) {
					t.Fatalf("%s: θ[%d] = %v", name, v, row)
				}
				sum += x
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%s: θ[%d] sums to %v", name, v, sum)
			}
		}
	}
}

func TestPLSAOptionValidation(t *testing.T) {
	net, _ := textNetwork(t, 5, false, 7)
	if _, err := NetPLSA(net, 1, 1); err == nil {
		t.Error("K < 2 should fail")
	}
	if _, err := NetPLSA(nil, 2, 1); err == nil {
		t.Error("nil network should fail")
	}
	// Numeric-only network has no categorical attribute.
	nb := hin.NewBuilder()
	nb.DeclareAttribute(hin.AttrSpec{Name: "x", Kind: hin.Numeric})
	nb.AddObject("a", "t")
	numNet, err := nb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NetPLSA(numNet, 2, 1); err == nil {
		t.Error("no categorical attribute should fail")
	}
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var points [][]float64
	var truth []int
	for i := 0; i < 60; i++ {
		blob := i % 3
		center := []float64{0, 0}
		switch blob {
		case 1:
			center = []float64{10, 0}
		case 2:
			center = []float64{0, 10}
		}
		points = append(points, []float64{center[0] + 0.3*rng.NormFloat64(), center[1] + 0.3*rng.NormFloat64()})
		truth = append(truth, blob)
	}
	res, err := KMeans(points, DefaultKMeansOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	nmi, err := eval.NMI(res.Labels, truth)
	if err != nil {
		t.Fatal(err)
	}
	if nmi < 0.99 {
		t.Errorf("k-means NMI on separated blobs = %v", nmi)
	}
}

func TestKMeansValidation(t *testing.T) {
	pts := [][]float64{{1}, {2}, {3}}
	if _, err := KMeans(nil, DefaultKMeansOptions(2)); err == nil {
		t.Error("empty points should fail")
	}
	if _, err := KMeans(pts, DefaultKMeansOptions(1)); err == nil {
		t.Error("K=1 should fail")
	}
	if _, err := KMeans(pts, DefaultKMeansOptions(4)); err == nil {
		t.Error("K>n should fail")
	}
	if _, err := KMeans([][]float64{{1}, {2, 3}}, DefaultKMeansOptions(2)); err == nil {
		t.Error("ragged points should fail")
	}
	bad := DefaultKMeansOptions(2)
	bad.Restarts = 0
	if _, err := KMeans(pts, bad); err == nil {
		t.Error("zero restarts should fail")
	}
}

func TestKMeansDuplicatePoints(t *testing.T) {
	// All-identical points: must terminate and produce valid labels.
	pts := make([][]float64, 10)
	for i := range pts {
		pts[i] = []float64{1, 1}
	}
	res, err := KMeans(pts, DefaultKMeansOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Labels {
		if l < 0 || l >= 2 {
			t.Fatal("label out of range")
		}
	}
}

func TestInterpolateNumeric(t *testing.T) {
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "temp", Kind: hin.Numeric})
	b.DeclareAttribute(hin.AttrSpec{Name: "precip", Kind: hin.Numeric})
	b.AddObject("t1", "T")
	b.AddObject("t2", "T")
	b.AddObject("p1", "P")
	b.AddNumeric("t1", "temp", 10)
	b.AddNumeric("t2", "temp", 20)
	b.AddNumeric("p1", "precip", 3)
	b.AddLink("t1", "p1", "near", 1)
	b.AddLink("p1", "t1", "near", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	feats, err := InterpolateNumeric(net, []string{"temp", "precip"})
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := net.IndexOf("t1")
	t2, _ := net.IndexOf("t2")
	p1, _ := net.IndexOf("p1")
	// t1: own temp 10; precip from neighbor p1 = 3.
	if feats[t1][0] != 10 || feats[t1][1] != 3 {
		t.Errorf("t1 features = %v", feats[t1])
	}
	// p1: temp from neighbor t1 = 10; own precip 3.
	if feats[p1][0] != 10 || feats[p1][1] != 3 {
		t.Errorf("p1 features = %v", feats[p1])
	}
	// t2 is isolated: temp = own 20; precip falls back to global mean 3.
	if feats[t2][0] != 20 || feats[t2][1] != 3 {
		t.Errorf("t2 features = %v", feats[t2])
	}
}

func TestInterpolateNumericErrors(t *testing.T) {
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 3})
	b.AddObject("x", "t")
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InterpolateNumeric(net, []string{"ghost"}); err == nil {
		t.Error("unknown attribute should fail")
	}
	if _, err := InterpolateNumeric(net, []string{"text"}); err == nil {
		t.Error("categorical attribute should fail")
	}
	if _, err := InterpolateNumeric(net, nil); err == nil {
		t.Error("no attributes should fail")
	}
	if _, err := InterpolateNumeric(nil, []string{"x"}); err == nil {
		t.Error("nil network should fail")
	}
}

func TestStandardize(t *testing.T) {
	pts := [][]float64{{1, 5}, {3, 5}, {5, 5}}
	Standardize(pts)
	// Column 0: mean 3, std sqrt(8/3).
	var mean0 float64
	for _, p := range pts {
		mean0 += p[0]
	}
	if math.Abs(mean0) > 1e-12 {
		t.Errorf("column 0 not centered: %v", mean0)
	}
	// Constant column stays at 0 (centered, not divided).
	for _, p := range pts {
		if p[1] != 0 {
			t.Errorf("constant column should be centered to 0, got %v", p[1])
		}
	}
	if Standardize(nil) != nil {
		t.Error("nil passthrough")
	}
}

func TestSpectralCombineOnWeather(t *testing.T) {
	ds, err := datagen.Weather(datagen.WeatherSetting1(60, 60, 5, 9))
	if err != nil {
		t.Fatal(err)
	}
	feats, err := InterpolateNumeric(ds.Net, []string{datagen.AttrTemperature, datagen.AttrPrecipitation})
	if err != nil {
		t.Fatal(err)
	}
	Standardize(feats)
	res, err := SpectralCombine(ds.Net, feats, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]int, 0, len(ds.Labels))
	for v := range ds.Labels {
		objs = append(objs, v)
	}
	nmi, err := eval.NMIOnSubset(objs, res.Labels, ds.Labels)
	if err != nil {
		t.Fatal(err)
	}
	// Setting 1 is the easy configuration: spectral should do clearly better
	// than chance (4 clusters, random ≈ 0). It still trails GenClus — the
	// ring-shaped communities suit modularity poorly, which is exactly the
	// paper's point.
	if nmi < 0.2 {
		t.Errorf("SpectralCombine NMI = %v on easy weather setting", nmi)
	}
}

func TestSpectralValidation(t *testing.T) {
	b := hin.NewBuilder()
	b.AddObject("a", "t")
	b.AddObject("b", "t")
	b.AddObject("c", "t")
	b.AddLink("a", "b", "r", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	feats := [][]float64{{1}, {2}, {3}}
	if _, err := SpectralCombine(nil, feats, 2, 1); err == nil {
		t.Error("nil network should fail")
	}
	if _, err := SpectralCombine(net, feats[:2], 2, 1); err == nil {
		t.Error("feature-count mismatch should fail")
	}
	if _, err := SpectralCombine(net, feats, 5, 1); err == nil {
		t.Error("K > n should fail")
	}
	for _, ragged := range [][][]float64{{{1, 2}, {2}, {3, 4}}, {{1}, {2, 3}, {4}}} {
		if _, err := SpectralCombine(net, ragged, 2, 1); err == nil {
			t.Errorf("ragged feature rows %v should fail", ragged)
		}
	}
}

func TestOneHot(t *testing.T) {
	theta := oneHot([]int{0, 1, 2}, 3, 1e-9)
	for v, row := range theta {
		var sum float64
		best := 0
		for k, x := range row {
			sum += x
			if x > row[best] {
				best = k
			}
		}
		if math.Abs(sum-1) > 1e-9 || best != v {
			t.Errorf("oneHot row %d = %v", v, row)
		}
	}
}

func TestKMeansInterpolatedWeatherBeatsChance(t *testing.T) {
	ds, err := datagen.Weather(datagen.WeatherSetting1(80, 40, 5, 10))
	if err != nil {
		t.Fatal(err)
	}
	feats, err := InterpolateNumeric(ds.Net, []string{datagen.AttrTemperature, datagen.AttrPrecipitation})
	if err != nil {
		t.Fatal(err)
	}
	res, err := KMeans(feats, DefaultKMeansOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	objs := make([]int, 0, len(ds.Labels))
	for v := range ds.Labels {
		objs = append(objs, v)
	}
	nmi, err := eval.NMIOnSubset(objs, res.Labels, ds.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if nmi < 0.3 {
		t.Errorf("k-means NMI = %v on easy weather setting", nmi)
	}
}
