package core

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"genclus/internal/datagen"
	"genclus/internal/hin"
	"genclus/internal/mathx"
)

func TestParsePrecision(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Precision
	}{
		{"", PrecisionFloat64},
		{"float64", PrecisionFloat64},
		{"float32", PrecisionFloat32},
	} {
		got, err := ParsePrecision(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePrecision(%q) = (%q, %v), want (%q, nil)", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"float16", "FLOAT32", "double", " float64"} {
		_, err := ParsePrecision(bad)
		var perr *PrecisionError
		if !errors.As(err, &perr) {
			t.Errorf("ParsePrecision(%q) err = %v, want *PrecisionError", bad, err)
		} else if perr.Value != bad {
			t.Errorf("ParsePrecision(%q) PrecisionError.Value = %q", bad, perr.Value)
		}
	}
}

// TestOptionsPrecisionHelpers: the With* helpers return modified copies and
// leave the receiver untouched, so a shared base Options can fan out
// per-job variants.
func TestOptionsPrecisionHelpers(t *testing.T) {
	base := DefaultOptions(3)
	derived := base.WithPrecision(PrecisionFloat32).WithParallelism(8)
	if derived.Precision != PrecisionFloat32 || derived.Parallelism != 8 {
		t.Fatalf("derived = {Precision: %q, Parallelism: %d}", derived.Precision, derived.Parallelism)
	}
	if base.Precision != "" || base.Parallelism != DefaultOptions(3).Parallelism {
		t.Fatalf("base options mutated: {Precision: %q, Parallelism: %d}", base.Precision, base.Parallelism)
	}
	if derived.K != base.K {
		t.Fatalf("helpers dropped unrelated fields: K = %d", derived.K)
	}
}

// TestValidateRejectsUnknownPrecision: Options.Validate surfaces the typed
// *PrecisionError genclusd maps to 400.
func TestValidateRejectsUnknownPrecision(t *testing.T) {
	net := mixedNetwork(t, 10, 1)
	opts := DefaultOptions(2)
	opts.Precision = "float16"
	var perr *PrecisionError
	if err := opts.Validate(net); !errors.As(err, &perr) {
		t.Fatalf("Validate() = %v, want *PrecisionError", err)
	}
	opts.Precision = PrecisionFloat32
	if err := opts.Validate(net); err != nil {
		t.Fatalf("Validate() rejected float32: %v", err)
	}
}

func TestF32ClampsOverflowToMaxFloat32(t *testing.T) {
	if got := f32(1e300); got != math.MaxFloat32 {
		t.Errorf("f32(1e300) = %v, want MaxFloat32", got)
	}
	if got := f32(-1e300); got != -math.MaxFloat32 {
		t.Errorf("f32(-1e300) = %v, want -MaxFloat32", got)
	}
	if got := f32(math.Inf(1)); !math.IsInf(got, 1) {
		t.Errorf("f32(+Inf) = %v, want +Inf", got)
	}
	if got := f32(0.1); got != float64(float32(0.1)) {
		t.Errorf("f32(0.1) = %v", got)
	}
}

// requireF32Representable asserts every learned parameter of a float32-mode
// fit is exactly representable in 32 bits — the invariant that makes 4-byte
// snapshot storage lossless.
func requireF32Representable(t *testing.T, res *Result) {
	t.Helper()
	check := func(what string, x float64) {
		t.Helper()
		if float64(float32(x)) != x {
			t.Fatalf("%s = %v is not float32-representable", what, x)
		}
	}
	for _, row := range res.Theta {
		for _, x := range row {
			check("theta", x)
		}
	}
	for _, g := range res.GammaVec {
		check("gamma", g)
	}
	for _, am := range res.Attrs {
		switch am.Kind {
		case hin.Categorical:
			for _, row := range am.Cat.Beta {
				for _, x := range row {
					check("beta", x)
				}
			}
		case hin.Numeric:
			for _, x := range am.Gauss.Mu {
				check("mu", x)
			}
			for _, x := range am.Gauss.Var {
				check("var", x)
			}
		}
	}
}

// TestFloat32FitStoresRepresentableParameters: under PrecisionFloat32 every
// committed parameter (Θ, γ, β, µ, σ²) must round-trip float64→float32→
// float64 exactly, on both the plain and the symmetric-propagation paths.
func TestFloat32FitStoresRepresentableParameters(t *testing.T) {
	net := mixedNetwork(t, 300, 11)
	opts := DefaultOptions(2).WithPrecision(PrecisionFloat32)
	opts.Seed = 42
	opts.OuterIters = 2
	opts.EMIters = 3
	res, err := Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireF32Representable(t, res.Result)

	sym := interleavedNetwork(t, 150, 17)
	sopts := DefaultOptions(3).WithPrecision(PrecisionFloat32)
	sopts.Seed = 5
	sopts.OuterIters = 2
	sopts.EMIters = 3
	sopts.SymmetricPropagation = true
	sres, err := Fit(sym, sopts)
	if err != nil {
		t.Fatal(err)
	}
	requireF32Representable(t, sres.Result)
}

// Float32-mode golden checksums, captured on linux/amd64 with this PR's
// kernels — the float32 siblings of goldenPlainChecksum and
// goldenSymmetricChecksum, under the same re-capture policy (see the
// comment on those constants).
const (
	goldenPlainChecksumF32     = 0x0a9dca056cf6025a
	goldenSymmetricChecksumF32 = 0xca55ae9bf4eca5f8
)

// TestFitGoldenBitwiseChecksumFloat32 pins the float32 storage mode to its
// own golden digests at every Parallelism level, including P=16 (more
// workers than reduction chunks). Float32 rounding is pointwise per Θ row,
// so the parallel merge tree must not leak into the rounded values any more
// than it does in float64 mode.
func TestFitGoldenBitwiseChecksumFloat32(t *testing.T) {
	pinGolden := runtime.GOARCH == goldenChecksumArch
	if !pinGolden {
		t.Logf("GOARCH=%s: requiring only cross-Parallelism identity (see TestFitGoldenBitwiseChecksum)", runtime.GOARCH)
	}
	check := func(name string, golden uint64, fit func(parallelism int) *Result, pars []int) {
		var first uint64
		for i, par := range pars {
			got := fitChecksum(fit(par))
			if i == 0 {
				first = got
			} else if got != first {
				t.Errorf("%s float32 fit checksum differs across Parallelism (%#x at %d vs %#x at %d)", name, got, par, first, pars[0])
			}
			if pinGolden && got != golden {
				t.Errorf("%s float32 fit (Parallelism=%d) checksum %#x, want golden %#x", name, par, got, golden)
			}
		}
	}

	plain := mixedNetwork(t, 700, 11)
	popts := DefaultOptions(2).WithPrecision(PrecisionFloat32)
	popts.Seed = 42
	popts.OuterIters = 3
	popts.EMIters = 5
	check("plain", goldenPlainChecksumF32, func(par int) *Result {
		res, err := Fit(plain, popts.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		return res.Result
	}, []int{1, 4, 16})

	sym := interleavedNetwork(t, 300, 17)
	sopts := DefaultOptions(3).WithPrecision(PrecisionFloat32)
	sopts.Seed = 5
	sopts.OuterIters = 3
	sopts.EMIters = 4
	sopts.SymmetricPropagation = true
	check("symmetric", goldenSymmetricChecksumF32, func(par int) *Result {
		res, err := Fit(sym, sopts.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		return res.Result
	}, []int{1, 2, 16})
}

// weatherOutlierNetwork is a small weather Setting 1 network (K=4) with
// three sensors carrying extra readings: one 40 units out, whose shifted
// log-terms fall far below exp's underflow; one with a ladder of readings
// from 3σ to 80σ past the top mean, whose shifted log-terms sweep through
// exp's subnormal range (−745 < x < −708) under the warm-start models; and
// one at 1e155, where the E-step's (x − µ)² overflows and every
// component's log-term is −Inf. weatherOutlierAttrs are warm-start models
// for its two attributes, so no component variance is seeded from the
// 1e155 reading.
func weatherOutlierNetwork(t *testing.T) *hin.Network {
	t.Helper()
	ds, err := datagen.Weather(datagen.WeatherSetting1(150, 150, 6, 23))
	if err != nil {
		t.Fatal(err)
	}
	src := ds.Net
	b := hin.NewBuilder()
	for a := 0; a < src.NumAttrs(); a++ {
		b.DeclareAttribute(src.Attr(a))
	}
	for v := 0; v < src.NumObjects(); v++ {
		o := src.Object(v)
		b.AddObject(o.ID, o.Type)
	}
	for _, e := range src.Edges() {
		b.AddLinkByIndex(e.From, e.To, src.RelationName(e.Rel), e.Weight)
	}
	for a := 0; a < src.NumAttrs(); a++ {
		name := src.Attr(a).Name
		for v, xs := range src.AttrNumericObs(a) {
			for _, x := range xs {
				b.AddNumericByIndex(v, name, x)
			}
		}
	}
	b.AddNumericByIndex(3, datagen.AttrTemperature, 44)
	for i := 0; i <= 154; i++ {
		b.AddNumericByIndex(5, datagen.AttrTemperature, 4+0.2*(3+0.5*float64(i)))
	}
	b.AddNumericByIndex(7, datagen.AttrTemperature, 1e155)
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func weatherOutlierAttrs() []AttrModel {
	var out []AttrModel
	for _, name := range []string{datagen.AttrTemperature, datagen.AttrPrecipitation} {
		out = append(out, AttrModel{Name: name, Kind: hin.Numeric, Gauss: &GaussParams{
			Mu:  []float64{1, 2, 3, 4},
			Var: []float64{0.04, 0.04, 0.04, 0.04},
		}})
	}
	return out
}

// TestKernelSpecializationsBitwiseIdentical proves the K-specialized E-step
// kernels (linkRowK2/K4, scoreCatAttrK2/K4, scoreGaussAttrK4,
// normalizeRowK4, and at K=4 on AVX2 hosts their packed forms in
// kernels_amd64.s) and g₁'s K=4 Gaussian pass (obsTermsGaussK4) compute
// bit for bit what the generic loops compute: the entire fit digest must
// match in three arms — the default dispatch (packed where AVX2 runs),
// the Go K-specialized kernels (packedKernels cleared), and the generic
// loops (specialization forced off). K=2 and K=4 cover every
// specialized width, on the multi-chunk network with both attribute kinds;
// the symmetric K=3 configuration covers the generic-only path staying
// generic; the weather case runs the E-step's Gaussian kernels on
// readings whose exponentials underflow or turn subnormal, and on one
// whose log-densities are all −Inf ((x − µ)² overflows), which the E-step
// skips.
func TestKernelSpecializationsBitwiseIdentical(t *testing.T) {
	if forceGenericKernels || packedKernels != mathx.AVX2() {
		t.Fatal("forceGenericKernels or packedKernels left changed by another test")
	}
	weather := weatherOutlierNetwork(t)
	fitOnce := func(name string, k int) uint64 {
		var net *hin.Network
		opts := DefaultOptions(k)
		switch name {
		case "K3-symmetric":
			net = interleavedNetwork(t, 300, 17)
			opts.Seed = 5
			opts.OuterIters = 2
			opts.EMIters = 3
			opts.SymmetricPropagation = true
		case "K4-weather":
			net = weather
			opts.Seed = 3
			opts.OuterIters = 2
			opts.EMIters = 4
			opts.InitAttrs = weatherOutlierAttrs()
		default:
			net = mixedNetwork(t, 400, 11)
			opts.Seed = 42
			opts.OuterIters = 2
			opts.EMIters = 4
		}
		res, err := Fit(net, opts)
		if err != nil {
			t.Fatal(err)
		}
		return fitChecksum(res.Result)
	}
	for _, tc := range []struct {
		name string
		k    int
	}{
		{"K2", 2},
		{"K4", 4},
		{"K3-symmetric", 3},
		{"K4-weather", 4},
	} {
		specialized := fitOnce(tc.name, tc.k)
		packed := packedKernels
		packedKernels = false
		goKernels := fitOnce(tc.name, tc.k)
		packedKernels = packed
		forceGenericKernels = true
		generic := fitOnce(tc.name, tc.k)
		forceGenericKernels = false
		if specialized != generic {
			t.Errorf("%s: specialized kernels digest %#x, generic %#x — a specialization changed the arithmetic", tc.name, specialized, generic)
		}
		if goKernels != generic {
			t.Errorf("%s: Go K-specialized kernels digest %#x, generic %#x — a Go specialization changed the arithmetic", tc.name, goKernels, generic)
		}
	}
}
