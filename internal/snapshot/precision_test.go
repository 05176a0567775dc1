package snapshot

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"genclus/internal/core"
	"genclus/internal/hin"
)

// fitModelF32 fits the standard test network in float32 storage mode, so
// every learned parameter is float32-representable by construction.
func fitModelF32(t testing.TB, net *hin.Network) *core.Model {
	t.Helper()
	opts := core.DefaultOptions(2).WithPrecision(core.PrecisionFloat32)
	opts.OuterIters = 3
	opts.EMIters = 5
	opts.Seed = 3
	m, err := core.Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFloat32RoundTripByteIdentity pins the float32 storage format: the
// FlagFloat32 wire bit is set, decode reports PrecisionFloat32, every model
// float survives the trip bit for bit (float32 widens exactly), re-encoding
// the decoded snapshot reproduces the original bytes, and the 4-byte floats
// actually shrink the snapshot versus the same model stored as float64.
func TestFloat32RoundTripByteIdentity(t *testing.T) {
	net := fitNetwork(t, 12, 0)
	m := fitModelF32(t, net)
	snap := &Snapshot{
		Model: m,
		Meta:  map[string]string{MetaPrecision: "float32"},
	}
	enc, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if enc[6]&byte(FlagFloat32) == 0 {
		t.Fatal("FlagFloat32 not set in the flags word")
	}
	dec, err := Decode(enc, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Model.Precision != core.PrecisionFloat32 {
		t.Fatalf("decoded Precision = %q, want float32", dec.Model.Precision)
	}
	re, err := Encode(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatalf("re-encoded float32 snapshot differs: %d vs %d bytes", len(enc), len(re))
	}

	got, want := dec.Model.Result, m.Result
	for v := range want.Theta {
		for k := range want.Theta[v] {
			if math.Float64bits(got.Theta[v][k]) != math.Float64bits(want.Theta[v][k]) {
				t.Fatalf("Theta[%d][%d] drifted through float32 storage", v, k)
			}
		}
	}
	for i := range want.GammaVec {
		if math.Float64bits(got.GammaVec[i]) != math.Float64bits(want.GammaVec[i]) {
			t.Fatalf("GammaVec[%d] drifted", i)
		}
	}
	// Scalars stay float64 on the wire regardless of the flag.
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
		math.Float64bits(got.PseudoLL) != math.Float64bits(want.PseudoLL) {
		t.Fatal("objective bits drifted")
	}

	res64 := *m.Result
	res64.Precision = core.PrecisionFloat64
	m64, err := core.NewModel(&res64, m.ObjectIDs())
	if err != nil {
		t.Fatal(err)
	}
	enc64, err := Encode(&Snapshot{Model: m64, Meta: snap.Meta})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(enc64) {
		t.Fatalf("float32 snapshot is %d bytes, float64 %d — expected shrink", len(enc), len(enc64))
	}
}

// TestFloat32EncodeRejectsUnrepresentable: Result.Precision is settable on
// arbitrary models, so the encoder must refuse values that 4-byte storage
// would corrupt — a mean beyond float32 range, a variance that underflows
// float32 to zero — rather than silently saturating them.
func TestFloat32EncodeRejectsUnrepresentable(t *testing.T) {
	build := func(mu, vr float64, prec core.Precision) *core.Model {
		res := &core.Result{
			K:         2,
			Precision: prec,
			Theta:     [][]float64{{0.25, 0.75}, {0.5, 0.5}},
			Gamma:     map[string]float64{},
			Attrs: []core.AttrModel{{
				Name:  "x",
				Kind:  hin.Numeric,
				Gauss: &core.GaussParams{Mu: []float64{0, mu}, Var: []float64{1, vr}},
			}},
		}
		m, err := core.NewModel(res, []string{"a", "b"})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if _, err := Encode(&Snapshot{Model: build(1e300, 1, core.PrecisionFloat32)}); err == nil {
		t.Fatal("encode accepted a mean outside float32 range")
	}
	if _, err := Encode(&Snapshot{Model: build(0, 1e-50, core.PrecisionFloat32)}); err == nil {
		t.Fatal("encode accepted a variance that underflows float32")
	}
	// The same model is fine as float64.
	if _, err := Encode(&Snapshot{Model: build(1e300, 1e-50, "")}); err != nil {
		t.Fatalf("float64 encode rejected in-domain values: %v", err)
	}
	// And in-range values are fine as float32.
	if _, err := Encode(&Snapshot{Model: build(2.5, 0.5, core.PrecisionFloat32)}); err != nil {
		t.Fatalf("float32 encode rejected representable values: %v", err)
	}
}

// TestEncodeRejectsUnknownPrecision: the codec validates Precision with the
// same ParsePrecision every other layer uses.
func TestEncodeRejectsUnknownPrecision(t *testing.T) {
	m := fitModel(t, fitNetwork(t, 6, 0))
	m.Precision = "float16"
	_, err := Encode(&Snapshot{Model: m})
	var perr *core.PrecisionError
	if !errors.As(err, &perr) {
		t.Fatalf("want *core.PrecisionError, got %v", err)
	}
}

// TestUnknownFlagBitsRejected is the forward-compatibility contract from the
// decoder's side of the fence: a snapshot carrying flag bits this decoder
// does not implement — the position a pre-float32 decoder is in when handed
// a float32 snapshot — must fail with a typed *FormatError, not misread the
// body.
func TestUnknownFlagBitsRejected(t *testing.T) {
	m := fitModel(t, fitNetwork(t, 6, 0))
	enc, err := Encode(&Snapshot{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	for _, bit := range []uint16{0x2, 0x8000, 0xFFFE} {
		b := append([]byte(nil), enc...)
		b[6] = byte(bit)
		b[7] = byte(bit >> 8)
		fixChecksum(b)
		_, err := Decode(b, DefaultLimits())
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("flags %#x: want *FormatError, got %v", bit, err)
		}
	}
}

// TestZeroFlagsDecodeAsFloat64: every pre-existing snapshot has a zero flags
// word and must keep decoding exactly as before, reporting float64 storage.
func TestZeroFlagsDecodeAsFloat64(t *testing.T) {
	m := fitModel(t, fitNetwork(t, 6, 0))
	enc, err := Encode(&Snapshot{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	if enc[6] != 0 || enc[7] != 0 {
		t.Fatalf("float64 snapshot has nonzero flags %#x %#x", enc[6], enc[7])
	}
	dec, err := Decode(enc, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Model.Precision != core.PrecisionFloat64 {
		t.Fatalf("decoded Precision = %q, want float64", dec.Model.Precision)
	}
}

// TestOptionsDigestPrecisionStability: float64 (and unset) precision leaves
// every previously recorded digest unchanged; float32 produces a distinct
// digest so registry consumers can tell the configurations apart.
func TestOptionsDigestPrecisionStability(t *testing.T) {
	base := core.DefaultOptions(3)
	unset := OptionsDigest(base)
	if got := OptionsDigest(base.WithPrecision(core.PrecisionFloat64)); got != unset {
		t.Fatal("explicit float64 changed the options digest")
	}
	if got := OptionsDigest(base.WithPrecision(core.PrecisionFloat32)); got == unset {
		t.Fatal("float32 did not change the options digest")
	}
}

// TestPrecisionMeta pins how the provenance key renders precisions.
func TestPrecisionMeta(t *testing.T) {
	if got := FormatPrecision(""); got != "float64" {
		t.Fatalf("FormatPrecision(\"\") = %q", got)
	}
	if got := FormatPrecision(core.PrecisionFloat32); got != "float32" {
		t.Fatalf("FormatPrecision(float32) = %q", got)
	}
}
