package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"genclus/internal/hin"
)

// twoTopicNetwork builds a clearly separable categorical network: two cliques
// of documents, each clique using a disjoint vocabulary block, linked by a
// within-clique "cites" relation.
func twoTopicNetwork(t *testing.T, docsPerTopic int, seed int64) (*hin.Network, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 20})
	n := 2 * docsPerTopic
	labels := make([]int, n)
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = "d" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		b.AddObject(ids[i], "doc")
		topic := i / docsPerTopic
		labels[i] = topic
		for w := 0; w < 12; w++ {
			term := topic*10 + rng.Intn(10)
			b.AddTermCount(ids[i], "text", term, 1)
		}
	}
	for i := 0; i < n; i++ {
		topic := i / docsPerTopic
		for c := 0; c < 2; c++ {
			j := topic*docsPerTopic + rng.Intn(docsPerTopic)
			if j != i {
				b.AddLink(ids[i], ids[j], "cites", 1)
			}
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net, labels
}

// clusterAgreement computes the best-of-two-permutations accuracy for K=2
// hard labels — enough to verify recovery without importing eval.
func clusterAgreement(pred, truth []int) float64 {
	var same, flip int
	for i := range pred {
		if pred[i] == truth[i] {
			same++
		} else {
			flip++
		}
	}
	best := same
	if flip > best {
		best = flip
	}
	return float64(best) / float64(len(pred))
}

func TestThetaSimplexInvariant(t *testing.T) {
	net, _ := twoTopicNetwork(t, 20, 7)
	opts := DefaultOptions(2)
	opts.OuterIters = 3
	opts.EMIters = 5
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v, row := range res.Theta {
		var sum float64
		for _, x := range row {
			if x <= 0 || x > 1 || math.IsNaN(x) {
				t.Fatalf("θ[%d] = %v outside (0,1]", v, row)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("θ[%d] sums to %v", v, sum)
		}
	}
}

func TestCategoricalRecovery(t *testing.T) {
	net, labels := twoTopicNetwork(t, 30, 11)
	opts := DefaultOptions(2)
	opts.Seed = 12
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	acc := clusterAgreement(res.HardLabels(), labels)
	if acc < 0.95 {
		t.Errorf("separable two-topic recovery accuracy = %v, want ≥ 0.95", acc)
	}
}

func TestBetaRowsNormalized(t *testing.T) {
	net, _ := twoTopicNetwork(t, 15, 13)
	opts := DefaultOptions(2)
	opts.OuterIters = 2
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, am := range res.Attrs {
		if am.Kind != hin.Categorical {
			continue
		}
		for k, row := range am.Cat.Beta {
			var sum float64
			for _, p := range row {
				if p < 0 {
					t.Fatalf("β[%d] has negative entry", k)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("β[%d] sums to %v", k, sum)
			}
		}
	}
}

// gaussianChainNetwork: two spatial blobs of sensors with numeric
// observations from well-separated Gaussians, chained by within-blob links.
func gaussianChainNetwork(t *testing.T, perBlob int, seed int64) (*hin.Network, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "reading", Kind: hin.Numeric})
	n := 2 * perBlob
	labels := make([]int, n)
	ids := make([]string, n)
	means := []float64{0, 5}
	for i := 0; i < n; i++ {
		ids[i] = "s" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		b.AddObject(ids[i], "sensor")
		blob := i / perBlob
		labels[i] = blob
		for o := 0; o < 3; o++ {
			b.AddNumeric(ids[i], "reading", means[blob]+0.3*rng.NormFloat64())
		}
	}
	for i := 0; i < n; i++ {
		blob := i / perBlob
		for c := 0; c < 2; c++ {
			j := blob*perBlob + rng.Intn(perBlob)
			if j != i {
				b.AddLink(ids[i], ids[j], "near", 1)
			}
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net, labels
}

func TestGaussianRecovery(t *testing.T) {
	net, labels := gaussianChainNetwork(t, 30, 17)
	opts := DefaultOptions(2)
	opts.Seed = 18
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	acc := clusterAgreement(res.HardLabels(), labels)
	if acc < 0.95 {
		t.Errorf("Gaussian recovery accuracy = %v", acc)
	}
	// Fitted means should approximate {0, 5} in some order.
	var gp *GaussParams
	for _, am := range res.Attrs {
		if am.Kind == hin.Numeric {
			gp = am.Gauss
		}
	}
	if gp == nil {
		t.Fatal("no Gaussian attribute model in result")
	}
	lo, hi := math.Min(gp.Mu[0], gp.Mu[1]), math.Max(gp.Mu[0], gp.Mu[1])
	if math.Abs(lo-0) > 0.5 || math.Abs(hi-5) > 0.5 {
		t.Errorf("fitted means = %v, want ≈ {0, 5}", gp.Mu)
	}
}

// TestIncompleteAttributePropagation: an object with NO observations must
// inherit its cluster from its neighbors — the central claim of the paper.
func TestIncompleteAttributePropagation(t *testing.T) {
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 10})
	// Five documents with topic-0 text, five with topic-1 text, and two
	// attribute-free "hub" objects each linked into one group.
	for i := 0; i < 5; i++ {
		id0 := "zero" + string(rune('a'+i))
		id1 := "one" + string(rune('a'+i))
		b.AddObject(id0, "doc")
		b.AddObject(id1, "doc")
		for w := 0; w < 10; w++ {
			b.AddTermCount(id0, "text", w%5, 1)
			b.AddTermCount(id1, "text", 5+w%5, 1)
		}
	}
	b.AddObject("hub0", "hub")
	b.AddObject("hub1", "hub")
	for i := 0; i < 5; i++ {
		b.AddLink("hub0", "zero"+string(rune('a'+i)), "touches", 1)
		b.AddLink("hub1", "one"+string(rune('a'+i)), "touches", 1)
		// Back-links so the docs see the hubs too.
		b.AddLink("zero"+string(rune('a'+i)), "hub0", "touched_by", 1)
		b.AddLink("one"+string(rune('a'+i)), "hub1", "touched_by", 1)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(2)
	opts.Seed = 21
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	h0, _ := net.IndexOf("hub0")
	h1, _ := net.IndexOf("hub1")
	z0, _ := net.IndexOf("zeroa")
	o0, _ := net.IndexOf("onea")
	labels := res.HardLabels()
	if labels[h0] != labels[z0] {
		t.Errorf("attribute-free hub0 (cluster %d) did not join its neighbors (cluster %d); θ=%v", labels[h0], labels[z0], res.Theta[h0])
	}
	if labels[h1] != labels[o0] {
		t.Errorf("attribute-free hub1 (cluster %d) did not join its neighbors (cluster %d); θ=%v", labels[h1], labels[o0], res.Theta[h1])
	}
	if labels[h0] == labels[h1] {
		t.Error("the two hubs should land in different clusters")
	}
}

// TestIsolatedObjectKeepsMembership: no links, no attributes → the row must
// survive EM without NaNs (it keeps its initialization).
func TestIsolatedObjectKeepsMembership(t *testing.T) {
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 4})
	b.AddObject("connected1", "doc")
	b.AddObject("connected2", "doc")
	b.AddObject("island", "doc")
	b.AddTermCount("connected1", "text", 0, 5)
	b.AddTermCount("connected2", "text", 3, 5)
	b.AddLink("connected1", "connected2", "r", 1)
	b.AddLink("connected2", "connected1", "r", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(2)
	opts.OuterIters = 2
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	isl, _ := net.IndexOf("island")
	var sum float64
	for _, x := range res.Theta[isl] {
		if math.IsNaN(x) || x <= 0 {
			t.Fatalf("island membership corrupted: %v", res.Theta[isl])
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("island membership sums to %v", sum)
	}
}

// TestParallelMatchesSerialOneIteration: one EM iteration must be bitwise
// reproducible across Parallelism settings for Θ (rows are computed
// independently from the same snapshot).
func TestParallelMatchesSerialOneIteration(t *testing.T) {
	net, _ := twoTopicNetwork(t, 25, 23)
	optsSerial := DefaultOptions(2)
	optsSerial.Parallelism = 1
	optsSerial.InitSeeds = 1
	sSerial := newState(net, optsSerial, 24, false)

	optsPar := optsSerial
	optsPar.Parallelism = 4
	sPar := newState(net, optsPar, 24, false)

	// Same seed → identical initial state.
	for v := range sSerial.theta {
		for k := range sSerial.theta[v] {
			if sSerial.theta[v][k] != sPar.theta[v][k] {
				t.Fatal("initial states differ")
			}
		}
	}
	sSerial.snapshotTheta()
	sSerial.emIteration()
	sPar.snapshotTheta()
	sPar.emIteration()
	for v := range sSerial.theta {
		for k := range sSerial.theta[v] {
			if math.Abs(sSerial.theta[v][k]-sPar.theta[v][k]) > 1e-12 {
				t.Fatalf("θ[%d][%d] differs: %v vs %v", v, k, sSerial.theta[v][k], sPar.theta[v][k])
			}
		}
	}
}

// TestParallelFullFitClose: full fits may diverge bit-wise (merge order of β
// statistics) but must agree behaviourally.
func TestParallelFullFitClose(t *testing.T) {
	net, labels := twoTopicNetwork(t, 25, 29)
	opts := DefaultOptions(2)
	opts.Seed = 30
	res1, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = 3
	res3, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a1, a3 := clusterAgreement(res1.HardLabels(), labels), clusterAgreement(res3.HardLabels(), labels); math.Abs(a1-a3) > 0.05 {
		t.Errorf("serial accuracy %v vs parallel accuracy %v", a1, a3)
	}
}

func TestFitObjectiveImproves(t *testing.T) {
	net, _ := twoTopicNetwork(t, 20, 31)
	opts := DefaultOptions(2)
	opts.TrackHistory = true
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != opts.OuterIters+1 {
		t.Fatalf("history length %d, want %d", len(res.History), opts.OuterIters+1)
	}
	first := res.History[0].G1
	last := res.History[len(res.History)-1].G1
	if last <= first {
		t.Errorf("objective did not improve: %v → %v", first, last)
	}
}

func TestFitValidation(t *testing.T) {
	net, _ := twoTopicNetwork(t, 5, 37)
	bad := []Options{
		func() Options { o := DefaultOptions(1); return o }(),
		func() Options { o := DefaultOptions(2); o.OuterIters = 0; return o }(),
		func() Options { o := DefaultOptions(2); o.EMIters = 0; return o }(),
		func() Options { o := DefaultOptions(2); o.NewtonIters = 0; return o }(),
		func() Options { o := DefaultOptions(2); o.PriorSigma = 0; return o }(),
		func() Options { o := DefaultOptions(2); o.Epsilon = 0; return o }(),
		func() Options { o := DefaultOptions(2); o.Epsilon = 0.9; return o }(),
		func() Options { o := DefaultOptions(2); o.SmoothEta = -1; return o }(),
		func() Options { o := DefaultOptions(2); o.SmoothEta = math.NaN(); return o }(),
		func() Options { o := DefaultOptions(2); o.EMTol = -1; return o }(),
		func() Options { o := DefaultOptions(2); o.EMTol = math.NaN(); return o }(),
		func() Options { o := DefaultOptions(2); o.OuterTol = math.NaN(); return o }(),
		func() Options { o := DefaultOptions(2); o.NewtonTol = -1; return o }(),
		func() Options { o := DefaultOptions(2); o.NewtonTol = math.NaN(); return o }(),
		func() Options { o := DefaultOptions(2); o.VarFloor = 0; return o }(),
		func() Options { o := DefaultOptions(2); o.InitSeeds = 0; return o }(),
		func() Options { o := DefaultOptions(2); o.InitSeeds = 3; o.InitSeedSteps = 0; return o }(),
		func() Options { o := DefaultOptions(2); o.Attributes = []string{"ghost"}; return o }(),
	}
	for i, o := range bad {
		if _, err := Fit(net, o); err == nil {
			t.Errorf("options %d should be rejected", i)
		}
	}
	if _, err := Fit(nil, DefaultOptions(2)); err == nil {
		t.Error("nil network should be rejected")
	}
}

func TestFixedGammaAblation(t *testing.T) {
	net, _ := twoTopicNetwork(t, 15, 41)
	opts := DefaultOptions(2)
	opts.LearnGamma = false
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	for rel, g := range res.Gamma {
		if g != 1 {
			t.Errorf("LearnGamma=false should keep γ(%s)=1, got %v", rel, g)
		}
	}
}

func TestGammaLearnedAwayFromOnes(t *testing.T) {
	// With learning on, the consistent/noisy construction must move γ.
	rng := rand.New(rand.NewSource(43))
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 10})
	const per = 25
	ids := make([]string, 2*per)
	for i := range ids {
		ids[i] = "n" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		b.AddObject(ids[i], "doc")
		topic := i / per
		for w := 0; w < 8; w++ {
			b.AddTermCount(ids[i], "text", topic*5+rng.Intn(5), 1)
		}
	}
	for i := range ids {
		topic := i / per
		for c := 0; c < 2; c++ {
			j := topic*per + rng.Intn(per)
			if j != i {
				b.AddLink(ids[i], ids[j], "good", 1)
			}
			j = rng.Intn(len(ids))
			if j != i {
				b.AddLink(ids[i], ids[j], "random", 1)
			}
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(2)
	opts.Seed = 44
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Gamma["good"] > res.Gamma["random"]) {
		t.Errorf("γ(good)=%v should exceed γ(random)=%v", res.Gamma["good"], res.Gamma["random"])
	}
}

func TestHardLabelsAndMembershipOf(t *testing.T) {
	net, _ := twoTopicNetwork(t, 5, 47)
	opts := DefaultOptions(2)
	opts.OuterIters = 1
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	labels := res.HardLabels()
	if len(labels) != net.NumObjects() {
		t.Fatal("label length mismatch")
	}
	for v, lab := range labels {
		row := res.MembershipOf(v)
		for _, x := range row {
			if x > row[lab] {
				t.Fatal("HardLabels not argmax")
			}
		}
	}
	if res.MembershipOf(-1) != nil || res.MembershipOf(net.NumObjects()) != nil {
		t.Error("MembershipOf out of range should be nil")
	}
	if res.String() == "" {
		t.Error("empty String()")
	}
}

func TestAttributeSubsetSelection(t *testing.T) {
	// Declare two attributes but cluster on only one; the ignored attribute
	// must not appear in the result models.
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "use", Kind: hin.Categorical, VocabSize: 6})
	b.DeclareAttribute(hin.AttrSpec{Name: "ignore", Kind: hin.Numeric})
	b.AddObject("x", "t")
	b.AddObject("y", "t")
	b.AddTermCount("x", "use", 0, 3)
	b.AddTermCount("y", "use", 5, 3)
	b.AddNumeric("x", "ignore", 100)
	b.AddLink("x", "y", "r", 1)
	b.AddLink("y", "x", "r", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(2)
	opts.Attributes = []string{"use"}
	opts.OuterIters = 2
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attrs) != 1 || res.Attrs[0].Name != "use" {
		t.Errorf("result attrs = %+v, want only 'use'", res.Attrs)
	}
}

// TestValidateRejectsRepeatedAttribute: an attribute named twice in
// Options.Attributes is an error, not a second copy of its likelihood in
// g₁ and a second set of its responsibilities in every E-step.
func TestValidateRejectsRepeatedAttribute(t *testing.T) {
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "x", Kind: hin.Numeric})
	b.DeclareAttribute(hin.AttrSpec{Name: "y", Kind: hin.Numeric})
	b.AddObject("a", "t")
	b.AddObject("b", "t")
	b.AddNumeric("a", "x", 1)
	b.AddNumeric("b", "y", 2)
	b.AddLink("a", "b", "r", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, attrs := range [][]string{{"x", "x"}, {"x", "y", "x"}, {"y", "y", "y"}} {
		opts := DefaultOptions(2)
		opts.Attributes = attrs
		err := opts.Validate(net)
		if err == nil || !strings.Contains(err.Error(), "named twice") {
			t.Errorf("Attributes %q: Validate = %v, want a repeated-name error", attrs, err)
		}
		if _, err := Fit(net, opts); err == nil {
			t.Errorf("Attributes %q: Fit accepted a repeated name", attrs)
		}
	}
	opts := DefaultOptions(2)
	opts.Attributes = []string{"y", "x"}
	if err := opts.Validate(net); err != nil {
		t.Errorf("Attributes [y x]: %v", err)
	}
}

func TestMixedAttributeKindsTogether(t *testing.T) {
	// Objects carrying a categorical attribute AND a numeric attribute, both
	// informative, must still produce a valid fit (Eq. 5 multi-attribute).
	rng := rand.New(rand.NewSource(51))
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 8})
	b.DeclareAttribute(hin.AttrSpec{Name: "value", Kind: hin.Numeric})
	const per = 20
	ids := make([]string, 2*per)
	labels := make([]int, 2*per)
	for i := range ids {
		ids[i] = "m" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		b.AddObject(ids[i], "obj")
		g := i / per
		labels[i] = g
		for w := 0; w < 6; w++ {
			b.AddTermCount(ids[i], "text", g*4+rng.Intn(4), 1)
		}
		b.AddNumeric(ids[i], "value", float64(10*g)+rng.NormFloat64())
	}
	for i := range ids {
		g := i / per
		j := g*per + rng.Intn(per)
		if j != i {
			b.AddLink(ids[i], ids[j], "r", 1)
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(2)
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if acc := clusterAgreement(res.HardLabels(), labels); acc < 0.95 {
		t.Errorf("mixed-attribute recovery = %v", acc)
	}
}

func TestSymmetricPropagationOption(t *testing.T) {
	// With symmetric propagation, an object with only IN-links still
	// receives membership information.
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 4})
	b.AddObject("src", "t")
	b.AddObject("sinkOnly", "t")
	b.AddTermCount("src", "text", 0, 10)
	b.AddLink("src", "sinkOnly", "r", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(2)
	opts.SymmetricPropagation = true
	opts.OuterIters = 3
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := net.IndexOf("src")
	sink, _ := net.IndexOf("sinkOnly")
	labels := res.HardLabels()
	if labels[src] != labels[sink] {
		t.Errorf("symmetric propagation should align sink with src: θsink=%v θsrc=%v", res.Theta[sink], res.Theta[src])
	}
}

func TestBestOfSeedsNotWorseThanSingle(t *testing.T) {
	net, _ := twoTopicNetwork(t, 20, 53)
	single := DefaultOptions(2)
	single.InitSeeds = 1
	single.Seed = 54
	multi := DefaultOptions(2)
	multi.InitSeeds = 6
	multi.InitSeedSteps = 2
	multi.Seed = 54
	resS, err := Fit(net, single)
	if err != nil {
		t.Fatal(err)
	}
	resM, err := Fit(net, multi)
	if err != nil {
		t.Fatal(err)
	}
	// Best-of-seeds picks the best initial objective; after the same number
	// of iterations it should typically not be (much) worse.
	if resM.Objective < resS.Objective-math.Abs(resS.Objective)*0.05 {
		t.Errorf("best-of-seeds objective %v much worse than single %v", resM.Objective, resS.Objective)
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	net, _ := twoTopicNetwork(t, 15, 61)
	opts := DefaultOptions(2)
	opts.Seed = 62
	res1, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v := range res1.Theta {
		for k := range res1.Theta[v] {
			if res1.Theta[v][k] != res2.Theta[v][k] {
				t.Fatal("same seed produced different Θ")
			}
		}
	}
	for r, g := range res1.GammaVec {
		if res2.GammaVec[r] != g {
			t.Fatal("same seed produced different γ")
		}
	}
}
