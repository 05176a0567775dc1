package mathx

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// logEdgeCases are the arguments where math.archLog changes branch or its
// fold changes side: ±0, ±Inf, NaN, the fold points √2/2 and √2, 1, the
// smallest normal and the subnormals below it, the largest finite
// number, and a few negatives.
var logEdgeCases = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Sqrt2 / 2, math.Sqrt2, 1, 2, 0.5,
	0x1p-1022, math.SmallestNonzeroFloat64, 0x1p-1023, 0x1.fffffffffffffp-1023,
	math.MaxFloat64, -1, -math.MaxFloat64, -0x1p-1022, -math.SmallestNonzeroFloat64,
	math.E, 1e-300, 1e300, 1e-9,
}

// checkLog compares LogTo on src with math.Log, into a separate dst and in
// place.
func checkLog(t *testing.T, src ...float64) {
	t.Helper()
	dst := make([]float64, len(src)+1)
	dst[len(src)] = 42
	LogTo(dst, src)
	for i, x := range src {
		if want := math.Log(x); !expBitsEqual(dst[i], want) {
			t.Fatalf("LogTo lane %d of %d: log(%v) = %v (%#x), math.Log = %v (%#x)",
				i, len(src), x, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
		}
	}
	if dst[len(src)] != 42 {
		t.Fatalf("LogTo wrote past len(src) = %d", len(src))
	}
	inPlace := append([]float64(nil), src...)
	LogTo(inPlace, inPlace)
	for i := range src {
		if !expBitsEqual(inPlace[i], dst[i]) {
			t.Fatalf("LogTo in place lane %d of %d: log(%v) = %v, into another slice %v",
				i, len(src), src[i], inPlace[i], dst[i])
		}
	}
}

// logRandomArg draws an argument the fit could pass: mostly a membership
// or a term probability in (0, 1], also anything positive up to
// MaxFloat64, neighbours of the edge cases, and now and then an arbitrary
// bit pattern (subnormals, negatives, NaNs).
func logRandomArg(rng *rand.Rand) float64 {
	switch r := rng.Intn(16); {
	case r < 7:
		return rng.Float64()
	case r < 9:
		return math.Float64frombits(rng.Uint64() >> 1) // any non-negative
	case r < 11:
		return 1 + rng.NormFloat64()*1e-3
	case r < 12:
		return math.Ldexp(rng.Float64(), -rng.Intn(1030))
	case r < 14:
		x := logEdgeCases[rng.Intn(len(logEdgeCases))]
		for n := rng.Intn(4); n > 0; n-- {
			x = math.Nextafter(x, math.Inf(2*rng.Intn(2)-1))
		}
		return x
	default:
		return math.Float64frombits(rng.Uint64())
	}
}

// TestLogToBitEqual: LogTo returns math.Log's bits on every edge case and
// its neighbours one ulp away, in every lane of an octet and in a tail
// lane, on √2/2 and 1 scaled to every exponent, and on ten million random
// lanes in slices of 0 to 40 (octets,
// single quads and tails, covered and uncovered lanes mixed).
func TestLogToBitEqual(t *testing.T) {
	for _, x := range logEdgeCases {
		for _, y := range []float64{x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1))} {
			for lane := 0; lane < 9; lane++ {
				src := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
				src[lane] = y
				checkLog(t, src...)
			}
		}
	}
	// The fold point and the powers of two at every exponent: which side
	// of √2/2 a mantissa falls on changes the result's bits at some
	// exponents only.
	for e := -1022; e <= 1023; e++ {
		h := math.Ldexp(math.Sqrt2/2, e+1)
		checkLog(t, h, math.Nextafter(h, 0), math.Nextafter(h, math.Inf(1)), math.Ldexp(1, e))
	}
	lanes := 10_000_000
	if testing.Short() {
		lanes = 400_000
	}
	rng := rand.New(rand.NewSource(37))
	src := make([]float64, 40)
	for done := 0; done < lanes; {
		n := rng.Intn(len(src) + 1)
		for i := range src[:n] {
			src[i] = logRandomArg(rng)
		}
		checkLog(t, src[:n]...)
		done += n
	}
}

// TestLogPathMatchesPlatform: on amd64 with AVX2 the probes pick the
// packed kernel, and elsewhere every lane calls math.Log.
func TestLogPathMatchesPlatform(t *testing.T) {
	if want := runtime.GOARCH == "amd64" && AVX2(); logPacked != want {
		t.Fatalf("logPacked = %v, want %v (GOARCH %s, AVX2 %v)", logPacked, want, runtime.GOARCH, AVX2())
	}
}

// TestLogToFallback: with the packed kernel rejected by the probes, or
// switched off, LogTo calls math.Log in every lane and stays bit-equal.
func TestLogToFallback(t *testing.T) {
	off := func(x float64) float64 { return math.Nextafter(math.Log(x), 0) }
	if pickLogPath(off) {
		t.Fatal("pickLogPath accepted a reference the kernel does not match")
	}
	saved := logPacked
	logPacked = false
	defer func() { logPacked = saved }()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 10_000; i++ {
		checkLog(t, logRandomArg(rng), logRandomArg(rng), logRandomArg(rng), logRandomArg(rng), logRandomArg(rng))
	}
	checkLog(t, logEdgeCases...)
}

func FuzzLogTo(f *testing.F) {
	seed := make([]byte, 0, 8*len(logEdgeCases))
	for _, x := range logEdgeCases {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	f.Add(seed)
	f.Add(seed[:8*9])
	f.Fuzz(func(t *testing.T, raw []byte) {
		src := make([]float64, len(raw)/8)
		for i := range src {
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkLog(t, src...)
	})
}

func BenchmarkLogTo(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 64)
	for i := range src {
		src[i] = rng.Float64()
	}
	dst := make([]float64, len(src))
	b.Run("LogTo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			LogTo(dst, src)
		}
	})
	b.Run("math.Log", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range src {
				dst[j] = math.Log(x)
			}
		}
	})
}
