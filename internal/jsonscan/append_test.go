package jsonscan_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"genclus/internal/jsonscan"
)

// TestAppendStringMatchesMarshal holds AppendString to json.Marshal's
// bytes on every escaping rule: quotes and backslashes, control
// characters, HTML characters, U+2028 and U+2029, and invalid UTF-8.
func TestAppendStringMatchesMarshal(t *testing.T) {
	cases := []string{
		"", "plain", `"quoted" \back\slash/`, "\b\f\n\r\t\x00\x01\x1f\x7f",
		"<&>", "a<b>c&d", "Zürich–東京 😀", "\u2028\u2029", "x\u2028y\u2029z",
		"\xff", "a\xfeb", "\xed\xa0\x80", "\xc3", "\xf0\x9f\x98", "é\xffé",
		"T0001", "<T,T>",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonscan.AppendString([]byte("prefix"), s); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got[len("prefix"):], want)
		}
	}
}

// TestAppendFloatMatchesMarshal holds AppendFloat to json.Marshal's bytes
// on both sides of its two format cut-offs (1e-6 and 1e21), on the
// trimmed one-digit exponents, on the extremes of float64 and on random
// bit patterns; NaN and ±Inf must fail with json.Marshal's message.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 0.25, 1.0 / 3, 2.0 / 3, 1e-6, 9.999999999999999e-7,
		1e-7, -1e-7, 1.5e-9, 1e-10, 1e20, 1e21, 9.999999999999999e20, 1.5e21, -1e21, 123456789012345678,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308,
		0.9999999990000001, 1e-9, 4.000000000000001e-9, 1e300, 1e-300,
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		x := math.Float64frombits(rng.Uint64())
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		cases = append(cases, x, rng.Float64(), rng.NormFloat64()*1e-7)
	}
	for _, x := range cases {
		want, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := jsonscan.AppendFloat(nil, x)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, %v; want %s", x, got, err, want)
		}
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, werr := json.Marshal(x)
		got, err := jsonscan.AppendFloat([]byte("p"), x)
		if err == nil || werr == nil || err.Error() != werr.Error() || string(got) != "p" {
			t.Fatalf("AppendFloat(%v) = %q, %v; want json.Marshal's error %v", x, got, err, werr)
		}
	}
}

// TestAppendCollectionsMatchMarshal covers AppendFloats and AppendMap:
// nil is null, empty is [] or {}, and map keys come out sorted and
// escaped.
func TestAppendCollectionsMatchMarshal(t *testing.T) {
	for _, xs := range [][]float64{nil, {}, {1}, {0.5, 1e-9, -3}} {
		want, _ := json.Marshal(xs)
		if got, err := jsonscan.AppendFloats(nil, xs); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendFloats(%#v) = %s, %v; want %s", xs, got, err, want)
		}
	}
	if _, err := jsonscan.AppendFloats(nil, []float64{1, math.NaN()}); err == nil {
		t.Fatal("AppendFloats with a NaN: no error")
	}
	for _, m := range []map[string]float64{nil, {}, {"b": 1, "a": 2, "<&>": 3, "\u2028": 4, "é": 5, "A": 6, "\xff": 7}} {
		want, _ := json.Marshal(m)
		if got, err := jsonscan.AppendMap(nil, m, jsonscan.AppendFloat); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendMap(%v) = %s, %v; want %s", m, got, err, want)
		}
	}
	if _, err := jsonscan.AppendMap(nil, map[string]float64{"a": math.Inf(1)}, jsonscan.AppendFloat); err == nil {
		t.Fatal("AppendMap with an infinity: no error")
	}
}
