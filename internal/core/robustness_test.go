package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"genclus/internal/hin"
)

// TestFitSurvivesExtremeObservations: numeric observations spanning many
// orders of magnitude must not produce NaN memberships (the log-space
// responsibility path).
func TestFitSurvivesExtremeObservations(t *testing.T) {
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "v", Kind: hin.Numeric})
	vals := []float64{1e-12, 1e-6, 1, 1e6, 1e12, -1e12, 3.14, -2.71}
	for i, x := range vals {
		id := "o" + string(rune('a'+i))
		b.AddObject(id, "t")
		b.AddNumeric(id, "v", x)
	}
	for i := 0; i < len(vals); i++ {
		j := (i + 1) % len(vals)
		b.AddLink("o"+string(rune('a'+i)), "o"+string(rune('a'+j)), "r", 1)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(3)
	opts.OuterIters = 3
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertValidTheta(t, res.Theta)
	for _, g := range res.GammaVec {
		if math.IsNaN(g) || g < 0 {
			t.Fatalf("invalid strength %v", g)
		}
	}
}

// TestFitSurvivesExtremeWeights: huge and tiny (but positive finite) link
// weights must not destabilize the strength learner.
func TestFitSurvivesExtremeWeights(t *testing.T) {
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 6})
	for i := 0; i < 6; i++ {
		id := "w" + string(rune('a'+i))
		b.AddObject(id, "t")
		b.AddTermCount(id, "text", (i/3)*3+i%3, 2)
	}
	b.AddLink("wa", "wb", "huge", 1e9)
	b.AddLink("wb", "wa", "huge", 1e9)
	b.AddLink("wd", "we", "tiny", 1e-9)
	b.AddLink("we", "wd", "tiny", 1e-9)
	b.AddLink("wa", "wd", "mid", 1)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(2)
	opts.OuterIters = 3
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertValidTheta(t, res.Theta)
	for rel, g := range res.Gamma {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("strength of %s = %v", rel, g)
		}
	}
}

// TestFitAttributeFreeNetwork: a network with a declared attribute but no
// observations at all degenerates to pure link clustering and must not
// crash or NaN.
func TestFitAttributeFreeNetwork(t *testing.T) {
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 4})
	b.DeclareAttribute(hin.AttrSpec{Name: "value", Kind: hin.Numeric})
	rng := rand.New(rand.NewSource(7))
	ids := make([]string, 20)
	for i := range ids {
		ids[i] = "n" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		b.AddObject(ids[i], "t")
	}
	for i := range ids {
		group := i / 10
		j := group*10 + rng.Intn(10)
		if j != i {
			b.AddLink(ids[i], ids[j], "r", 1)
		}
	}
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
	assertValidTheta(t, res.Theta)
}

// TestFitSingleObjectPerCluster: K equal to the number of objects is legal.
func TestFitKEqualsObjects(t *testing.T) {
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 3})
	b.AddObject("x", "t")
	b.AddObject("y", "t")
	b.AddTermCount("x", "text", 0, 2)
	b.AddTermCount("y", "text", 2, 2)
	b.AddLink("x", "y", "r", 1)
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
	assertValidTheta(t, res.Theta)
}

// TestFitRandomNetworksNeverNaN is the catch-all property test: any valid
// network must produce a valid fit.
func TestFitRandomNetworksNeverNaN(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := hin.NewBuilder()
		nObj := 3 + rng.Intn(25)
		hasText := rng.Intn(2) == 0
		hasNum := rng.Intn(2) == 0
		if !hasText && !hasNum {
			hasText = true
		}
		if hasText {
			b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 8})
		}
		if hasNum {
			b.DeclareAttribute(hin.AttrSpec{Name: "num", Kind: hin.Numeric})
		}
		ids := make([]string, nObj)
		for i := range ids {
			ids[i] = "q" + string(rune('a'+i%26)) + string(rune('0'+i/26))
			b.AddObject(ids[i], "t")
			if hasText && rng.Intn(3) > 0 {
				b.AddTermCount(ids[i], "text", rng.Intn(8), 1+float64(rng.Intn(4)))
			}
			if hasNum && rng.Intn(3) > 0 {
				b.AddNumeric(ids[i], "num", rng.NormFloat64()*10)
			}
		}
		rels := []string{"r0", "r1", "r2"}
		for e := 0; e < nObj*2; e++ {
			i, j := rng.Intn(nObj), rng.Intn(nObj)
			if i != j {
				b.AddLink(ids[i], ids[j], rels[rng.Intn(3)], 0.1+rng.Float64()*3)
			}
		}
		net, err := b.Build()
		if err != nil {
			return false
		}
		opts := DefaultOptions(2 + rng.Intn(3))
		opts.OuterIters = 2
		opts.EMIters = 4
		opts.InitSeeds = 1
		opts.Seed = seed
		res, err := Fit(net, opts)
		if err != nil {
			return false
		}
		for _, row := range res.Theta {
			var sum float64
			for _, x := range row {
				if math.IsNaN(x) || x <= 0 {
					return false
				}
				sum += x
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		for _, g := range res.GammaVec {
			if math.IsNaN(g) || g < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestInitThetaWarmStart: a warm start from the truth must keep the truth
// on a trivially separable instance.
func TestInitThetaWarmStart(t *testing.T) {
	net, labels := twoTopicNetwork(t, 10, 99)
	init := make([][]float64, net.NumObjects())
	for v := range init {
		row := make([]float64, 2)
		row[labels[v]] = 0.9
		row[1-labels[v]] = 0.1
		init[v] = row
	}
	opts := DefaultOptions(2)
	opts.InitTheta = init
	opts.OuterIters = 2
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	if acc := clusterAgreement(res.HardLabels(), labels); acc < 0.99 {
		t.Errorf("warm start lost the truth: accuracy %v", acc)
	}
	// Validation of malformed warm starts.
	bad := DefaultOptions(2)
	bad.InitTheta = init[:2]
	if _, err := Fit(net, bad); err == nil {
		t.Error("short InitTheta should be rejected")
	}
	bad2 := DefaultOptions(2)
	bad2.InitTheta = make([][]float64, net.NumObjects())
	for v := range bad2.InitTheta {
		bad2.InitTheta[v] = []float64{1, 2, 3} // wrong K
	}
	if _, err := Fit(net, bad2); err == nil {
		t.Error("wrong-width InitTheta should be rejected")
	}
	bad3 := DefaultOptions(2)
	bad3.InitTheta = make([][]float64, net.NumObjects())
	for v := range bad3.InitTheta {
		bad3.InitTheta[v] = []float64{-1, 2}
	}
	if _, err := Fit(net, bad3); err == nil {
		t.Error("negative InitTheta should be rejected")
	}
	for _, x := range []float64{math.NaN(), math.Inf(1)} {
		bad4 := DefaultOptions(2)
		bad4.InitTheta = make([][]float64, net.NumObjects())
		for v := range bad4.InitTheta {
			bad4.InitTheta[v] = []float64{0.5, 0.5}
		}
		bad4.InitTheta[3][1] = x
		if _, err := Fit(net, bad4); err == nil {
			t.Errorf("InitTheta entry %v should be rejected", x)
		}
	}
}

// TestInitialGammaOption: the starting strengths must scale as configured.
func TestInitialGammaOption(t *testing.T) {
	net, _ := twoTopicNetwork(t, 8, 101)
	opts := DefaultOptions(2)
	opts.InitialGamma = 2.5
	opts.LearnGamma = false
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	for rel, g := range res.Gamma {
		if g != 2.5 {
			t.Errorf("γ(%s) = %v, want 2.5", rel, g)
		}
	}
	for _, g0 := range []float64{-1, math.Inf(1), math.NaN()} {
		bad := DefaultOptions(2)
		bad.InitialGamma = g0
		if _, err := Fit(net, bad); err == nil {
			t.Errorf("InitialGamma = %v should be rejected", g0)
		}
	}
}

func assertValidTheta(t *testing.T, theta [][]float64) {
	t.Helper()
	for v, row := range theta {
		var sum float64
		for _, x := range row {
			if math.IsNaN(x) || x <= 0 || x > 1 {
				t.Fatalf("θ[%d] = %v", v, row)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("θ[%d] sums to %v", v, sum)
		}
	}
}
