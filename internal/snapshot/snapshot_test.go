package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"genclus/internal/core"
	"genclus/internal/hin"
)

// fitNetwork builds a small deterministic two-topic network with both a
// categorical and a numeric attribute, so snapshots exercise every section
// of the wire format.
func fitNetwork(t testing.TB, perTopic int, extra int) *hin.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 30})
	b.DeclareAttribute(hin.AttrSpec{Name: "score", Kind: hin.Numeric})
	n := 2 * (perTopic + extra)
	ids := make([]string, 0, n)
	add := func(topic, i int, tag string) string {
		id := tag + string(rune('0'+topic)) + "_" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		b.AddObject(id, "doc")
		for w := 0; w < 6; w++ {
			b.AddTermCount(id, "text", topic*15+(i+w)%15, 1)
		}
		if i%2 == 0 {
			b.AddNumeric(id, "score", float64(topic*8)+rng.NormFloat64())
		}
		return id
	}
	for topic := 0; topic < 2; topic++ {
		base := make([]string, perTopic)
		for i := range base {
			base[i] = add(topic, i, "doc")
			ids = append(ids, base[i])
		}
		for i, id := range base {
			b.AddLink(id, base[(i+1)%perTopic], "cites", 1)
		}
		for i := 0; i < extra; i++ {
			id := add(topic, i, "new")
			b.AddLink(id, base[i%perTopic], "cites", 1)
			ids = append(ids, id)
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func fitModel(t testing.TB, net *hin.Network) *core.Model {
	t.Helper()
	opts := core.DefaultOptions(2)
	opts.OuterIters = 3
	opts.EMIters = 5
	opts.Seed = 3
	m, err := core.Fit(net, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRoundTripByteIdentity pins the codec's core contract: decoding and
// re-encoding reproduces the original bytes exactly, and every fitted
// quantity survives the trip bit for bit.
func TestRoundTripByteIdentity(t *testing.T) {
	m := fitModel(t, fitNetwork(t, 12, 0))
	snap := &Snapshot{Model: m, Meta: map[string]string{
		"job_id":         "job_1234",
		"network_id":     "net_5678",
		"options_digest": "deadbeefdeadbeef",
	}}
	enc, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	re, err := Encode(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatalf("re-encoded snapshot differs: %d vs %d bytes", len(enc), len(re))
	}
	if DataDigest(enc) != DataDigest(re) {
		t.Fatal("digest changed across round trip")
	}

	got, want := dec.Model.Result, m.Result
	if got.K != want.K || got.EMIterations != want.EMIterations || got.OuterIterations != want.OuterIterations {
		t.Fatalf("scalars drifted: %+v vs %+v", got, want)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
		math.Float64bits(got.PseudoLL) != math.Float64bits(want.PseudoLL) {
		t.Fatal("objective bits drifted")
	}
	for v := range want.Theta {
		for k := range want.Theta[v] {
			if math.Float64bits(got.Theta[v][k]) != math.Float64bits(want.Theta[v][k]) {
				t.Fatalf("Theta[%d][%d] drifted", v, k)
			}
		}
	}
	for name, g := range want.Gamma {
		if math.Float64bits(got.Gamma[name]) != math.Float64bits(g) {
			t.Fatalf("Gamma[%q] drifted", name)
		}
	}
	for i := range want.GammaVec {
		if math.Float64bits(got.GammaVec[i]) != math.Float64bits(want.GammaVec[i]) {
			t.Fatalf("GammaVec[%d] drifted", i)
		}
	}
	if len(got.Attrs) != len(want.Attrs) {
		t.Fatalf("attr count drifted: %d vs %d", len(got.Attrs), len(want.Attrs))
	}
	for i, wa := range want.Attrs {
		ga := got.Attrs[i]
		if ga.Name != wa.Name || ga.Kind != wa.Kind {
			t.Fatalf("attr %d identity drifted: %+v vs %+v", i, ga, wa)
		}
	}
	gotIDs, wantIDs := dec.Model.ObjectIDs(), m.ObjectIDs()
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("object id %d drifted: %q vs %q", i, gotIDs[i], wantIDs[i])
		}
	}
	for k, v := range snap.Meta {
		if dec.Meta[k] != v {
			t.Fatalf("meta[%q] drifted: %q vs %q", k, dec.Meta[k], v)
		}
	}
}

// TestEncodeDeterministic pins that two encodings of the same state are
// byte-identical even though Go map iteration is randomized.
func TestEncodeDeterministic(t *testing.T) {
	m := fitModel(t, fitNetwork(t, 8, 0))
	snap := &Snapshot{Model: m, Meta: map[string]string{"b": "2", "a": "1", "c": "3"}}
	first, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		again, err := Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

// TestDecodeRejectsMalformed walks the corruption catalogue: every mutation
// must fail with a typed *FormatError (never a panic, never success).
func TestDecodeRejectsMalformed(t *testing.T) {
	m := fitModel(t, fitNetwork(t, 6, 0))
	enc, err := Encode(&Snapshot{Model: m, Meta: map[string]string{"k": "v"}})
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(name string, f func(b []byte) []byte) {
		t.Run(name, func(t *testing.T) {
			b := f(append([]byte(nil), enc...))
			_, err := Decode(b, DefaultLimits())
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("want *FormatError, got %v", err)
			}
		})
	}
	mutate("bad-magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("future-version", func(b []byte) []byte { b[4] = 99; return b })
	mutate("unknown-flag-bit", func(b []byte) []byte { b[6] = 2; fixChecksum(b); return b })
	mutate("truncated-header", func(b []byte) []byte { return b[:5] })
	mutate("truncated-mid-body", func(b []byte) []byte { return b[:len(b)/2] })
	mutate("truncated-footer", func(b []byte) []byte { return b[:len(b)-2] })
	mutate("flipped-payload-bit", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b })
	mutate("flipped-checksum", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b })
	mutate("trailing-garbage", func(b []byte) []byte { return append(b, 0xAA) })
	mutate("empty", func(b []byte) []byte { return nil })
}

// TestDecodeRejectsOversizedDims pins that declared dimensions above the
// limits fail with *LimitError (the 413 path) before large allocation.
func TestDecodeRejectsOversizedDims(t *testing.T) {
	m := fitModel(t, fitNetwork(t, 6, 0))
	enc, err := Encode(&Snapshot{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	lim := DefaultLimits()
	lim.MaxObjects = 3 // the model has 24 objects
	_, err = Decode(enc, lim)
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("want *LimitError, got %v", err)
	}
	if le.Dimension != "objects" || le.Max != 3 {
		t.Fatalf("wrong limit error: %+v", le)
	}

	lim = DefaultLimits()
	lim.MaxK = 1 // note: decoder also rejects K<2 as malformed; cap must fire first
	if _, err = Decode(enc, lim); !errors.As(err, &le) {
		t.Fatalf("want *LimitError for K cap, got %v", err)
	}

	lim = DefaultLimits()
	lim.MaxVocab = 5
	if _, err = Decode(enc, lim); !errors.As(err, &le) || le.Dimension != "vocabulary" {
		t.Fatalf("want vocabulary *LimitError, got %v", err)
	}
}

// TestDecodeRejectsNonCanonical pins the strictness that backs the
// bytes-are-identity contract: non-minimal varints and unsorted maps are
// rejected even though they would parse.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	m := fitModel(t, fitNetwork(t, 6, 0))
	enc, err := Encode(&Snapshot{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	// The meta-count varint is the first byte after the 8-byte header
	// (value 0, one byte). Re-encode it non-minimally as 0x80 0x00 and fix
	// nothing else: decoding must fail on the varint itself, before the
	// checksum would.
	nonMinimal := append([]byte(nil), enc[:8]...)
	nonMinimal = append(nonMinimal, 0x80, 0x00)
	nonMinimal = append(nonMinimal, enc[9:]...)
	_, err = Decode(nonMinimal, DefaultLimits())
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("non-minimal varint: want *FormatError, got %v", err)
	}

	// Meta keys out of order re-encode differently, so they are rejected.
	badMeta := &Snapshot{Model: m, Meta: map[string]string{"a": "1", "b": "2"}}
	good, err := Encode(badMeta)
	if err != nil {
		t.Fatal(err)
	}
	// Swap the two (key, value) string pairs in place: "a","1","b","2" →
	// "b","2","a","1". Each pair is 4 bytes (len-1 prefix + 1 byte) so the
	// region is at offset 9 (header 8 + count byte), 8 bytes long.
	swapped := append([]byte(nil), good...)
	copy(swapped[9:13], good[13:17])
	copy(swapped[13:17], good[9:13])
	// Fix the checksum so ONLY the ordering violation can reject it.
	fixChecksum(swapped)
	if _, err := Decode(swapped, DefaultLimits()); !errors.As(err, &fe) {
		t.Fatalf("unsorted meta: want *FormatError, got %v", err)
	}
}

// fixChecksum recomputes the trailing CRC over a mutated snapshot body so
// strictness tests can reach the check they target.
func fixChecksum(b []byte) {
	sum := crc32.Checksum(b[:len(b)-4], castagnoli)
	binary.LittleEndian.PutUint32(b[len(b)-4:], sum)
}

// TestDecodeRejectsOutOfDomainFloats pins that out-of-domain model values
// are stopped on both sides of the codec: the encoder refuses to write
// them, and a hand-corrupted snapshot carrying a NaN membership is rejected
// at the trust boundary rather than poisoning a later refit.
func TestDecodeRejectsOutOfDomainFloats(t *testing.T) {
	m := fitModel(t, fitNetwork(t, 6, 0))
	orig := m.Theta[0][0]
	m.Theta[0][0] = math.NaN()
	if _, err := Encode(&Snapshot{Model: m}); err == nil {
		t.Fatal("encode accepted NaN Theta")
	}
	m.Theta[0][0] = -0.25
	if _, err := Encode(&Snapshot{Model: m}); err == nil {
		t.Fatal("encode accepted negative Theta")
	}
	m.Theta[0][0] = orig

	// Decoder side: a minimal two-object model has Theta[0][0] at a known
	// offset — header (8) + meta count (1) + k (1) + object count (1) +
	// "a" (2) + "b" (2) = 15. Overwrite it with NaN bits, fix the CRC so
	// only the domain check can reject it.
	res := &core.Result{K: 2, Theta: [][]float64{{0.25, 0.75}, {0.5, 0.5}}, Gamma: map[string]float64{}}
	mm, err := core.NewModel(res, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := Encode(&Snapshot{Model: mm})
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(enc[15:], math.Float64bits(math.NaN()))
	fixChecksum(enc)
	_, err = Decode(enc, DefaultLimits())
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("NaN Theta in the byte stream: want *FormatError, got %v", err)
	}
}

// TestEncodeRejectsInconsistentShapes pins the encoder-side validation.
func TestEncodeRejectsInconsistentShapes(t *testing.T) {
	m := fitModel(t, fitNetwork(t, 6, 0))
	m.Theta[1] = m.Theta[1][:1]
	if _, err := Encode(&Snapshot{Model: m}); err == nil {
		t.Fatal("encode accepted a short Theta row")
	}
	if _, err := Encode(nil); err == nil {
		t.Fatal("encode accepted a nil snapshot")
	}
	if _, err := Encode(&Snapshot{}); err == nil {
		t.Fatal("encode accepted a nil model")
	}
}

// TestMinimalModelRoundTrip covers the sparse end of the format: a model
// rehydrated from a remote result (no GammaVec, no attribute models, no
// meta) must round-trip byte-identically too.
func TestMinimalModelRoundTrip(t *testing.T) {
	res := &core.Result{
		K:     2,
		Theta: [][]float64{{0.25, 0.75}, {0.5, 0.5}},
		Gamma: map[string]float64{"cites": 1.5},
	}
	m, err := core.NewModel(res, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := Encode(&Snapshot{Model: m})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc, DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	re, err := Encode(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, re) {
		t.Fatal("minimal model round trip not byte-identical")
	}
	if dec.Model.GammaVec != nil || len(dec.Model.Attrs) != 0 || dec.Meta != nil {
		t.Fatalf("sparse sections drifted: %+v", dec.Model.Result)
	}
}

// TestDecodeEpsilonFromMeta pins the epsilon provenance contract: Decode
// restores Result.Epsilon from a valid MetaEpsilon entry, and leaves it 0
// (the fit default) when the key is absent, unparsable, or outside the
// (0, 1/K) domain, rather than failing the decode. The encoded model's own
// in-memory Epsilon is set to a different value, so only the meta can
// supply what Decode reports.
func TestDecodeEpsilonFromMeta(t *testing.T) {
	res := &core.Result{K: 2, Theta: [][]float64{{0.5, 0.5}}, Epsilon: 1e-4}
	m, err := core.NewModel(res, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		meta map[string]string
		want float64
	}{
		{"recorded", map[string]string{MetaEpsilon: FormatEpsilon(1e-3)}, 1e-3},
		{"default recorded", map[string]string{MetaEpsilon: FormatEpsilon(1e-9)}, 1e-9},
		{"absent", nil, 0},
		{"junk", map[string]string{MetaEpsilon: "not-a-float"}, 0},
		{"zero", map[string]string{MetaEpsilon: "0x0p+00"}, 0},
		{"too large for K", map[string]string{MetaEpsilon: "0x1p+00"}, 0},
	}
	for _, tc := range cases {
		enc, err := Encode(&Snapshot{Model: m, Meta: tc.meta})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		dec, err := Decode(enc, DefaultLimits())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := dec.Model.Epsilon; got != tc.want {
			t.Errorf("%s: decoded Epsilon = %v, want %v", tc.name, got, tc.want)
		}
	}
}
