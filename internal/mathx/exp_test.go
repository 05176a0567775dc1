package mathx

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"testing"
)

// expEdgeCases are the arguments where math.archExp changes branch or its
// result changes class: ±0, ±Inf, NaN, the ends of the ports' main path,
// the assembly's overflow threshold and the biased exponents where 2^k
// would overflow, turn subnormal or underflow to 0, and the largest and
// smallest finite arguments.
var expEdgeCases = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	expFastLo, expFastHi,
	7.09782712893384e+02, 709.436, 709.437,
	-708.4, -708.5, -745.1332, -745.1333, -745.2, -746,
	1023.5 / expLog2e, -1022.5 / expLog2e, -1074.5 / expLog2e, -1075.5 / expLog2e,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	1, -1, 0.5 * math.Ln2, -0.5 * math.Ln2,
}

// expBitsEqual reports whether got has want's bits, counting every NaN as
// equal to every NaN (math.Exp returns its NaN argument unchanged).
func expBitsEqual(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// checkExp compares ExpTo on src with math.Exp.
func checkExp(t *testing.T, src ...float64) {
	t.Helper()
	dst := make([]float64, len(src)+1)
	dst[len(src)] = 42
	ExpTo(dst, src)
	for i, x := range src {
		if want := math.Exp(x); !expBitsEqual(dst[i], want) {
			t.Fatalf("ExpTo lane %d of %d: exp(%v) = %v (%#x), math.Exp = %v (%#x)",
				i, len(src), x, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
		}
	}
	if dst[len(src)] != 42 {
		t.Fatalf("ExpTo wrote past len(src) = %d", len(src))
	}
}

// expRandomArg draws an argument the E-step could pass: mostly a
// responsibility shift in [−800, 0], also positive arguments up to the
// overflow, neighbours of the main path's ends and of the branch edges, and
// now and then an arbitrary bit pattern (subnormals, huge values, NaNs).
func expRandomArg(rng *rand.Rand) float64 {
	switch r := rng.Intn(16); {
	case r < 9:
		return -800 * rng.Float64()
	case r < 11:
		return 1500*rng.Float64() - 750
	case r < 12:
		return rng.NormFloat64()
	case r < 13:
		return rng.NormFloat64() * 1e-8
	case r < 14:
		x := expEdgeCases[rng.Intn(len(expEdgeCases))]
		for n := rng.Intn(4); n > 0; n-- {
			x = math.Nextafter(x, math.Inf(2*rng.Intn(2)-1))
		}
		return x
	default:
		return math.Float64frombits(rng.Uint64())
	}
}

// TestExpBitEqual: ExpTo returns math.Exp's bits on every edge case in
// every lane of a quad and in a tail lane, and on ten million random
// arguments in slices of 0 to 40 lanes (whole quads and tails, fast and
// fallback lanes mixed).
func TestExpBitEqual(t *testing.T) {
	for _, x := range expEdgeCases {
		for _, y := range []float64{x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1))} {
			for lane := 0; lane < 5; lane++ {
				src := []float64{-1, -2, -3, -4, -5}
				src[lane] = y
				checkExp(t, src...)
			}
		}
	}
	lanes := 10_000_000
	if testing.Short() {
		lanes = 400_000
	}
	rng := rand.New(rand.NewSource(31))
	src := make([]float64, 40)
	for done := 0; done < lanes; {
		n := rng.Intn(len(src) + 1)
		for i := range src[:n] {
			src[i] = expRandomArg(rng)
		}
		checkExp(t, src[:n]...)
		done += n
	}
}

// TestExpPathMatchesPlatform: on amd64 the probes pick a port — the
// platform's math.Exp is one of the assembly's two paths — and elsewhere
// every lane calls math.Exp.
func TestExpPathMatchesPlatform(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if expPath != expStd {
			t.Fatalf("expPath = %d off amd64, want math.Exp", expPath)
		}
		return
	}
	if expPath == expStd {
		t.Fatal("neither port matched math.Exp on the probes")
	}
}

// TestExpProbesTellPathsApart: the probes separate the two ports on four
// arguments, so a host whose math.Exp takes one path cannot pick the
// other's port.
func TestExpProbesTellPathsApart(t *testing.T) {
	differ := 0
	for _, x := range expProbes {
		if math.Float64bits(expFMALane(x)) != math.Float64bits(expSSE2Lane(x)) {
			differ++
		}
	}
	if differ < 4 {
		t.Fatalf("the FMA and SSE2 ports differ on %d probes, want 4", differ)
	}
}

// TestExpFallback: with no port matching the reference, ExpTo calls
// math.Exp in every lane, and its results stay bit-equal.
func TestExpFallback(t *testing.T) {
	off := func(x float64) float64 { return math.Nextafter(math.Exp(x), 0) }
	if p := pickExpPath(off); p != expStd {
		t.Fatalf("pickExpPath with a reference no port matches = %d, want math.Exp", p)
	}
	saved := expPath
	expPath = expStd
	defer func() { expPath = saved }()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10_000; i++ {
		checkExp(t, expRandomArg(rng), expRandomArg(rng), expRandomArg(rng), expRandomArg(rng), expRandomArg(rng))
	}
	checkExp(t, expEdgeCases...)
}

// TestExpSSE2PathBitEqual re-runs TestExpBitEqual in a child process with
// the CPU's FMA feature masked (GODEBUG=cpu.fma=off), where math.Exp takes
// the assembly's SSE2 path: the probes must pick the SSE2 port and its
// results must carry math.Exp's bits too. A build that requires FMA
// (GOAMD64=v3 and up) cannot mask it, and skips.
func TestExpSSE2PathBitEqual(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the SSE2 path exists only on amd64")
	}
	if os.Getenv("GENCLUS_EXP_CHILD") != "" {
		if expPath == expFMA {
			t.Skip("FMA stays on: this build requires it")
		}
		if expPath != expSSE2 {
			t.Fatalf("with FMA masked expPath = %d, want the SSE2 port", expPath)
		}
		return
	}
	args := []string{"-test.v", "-test.run=^(TestExpSSE2PathBitEqual|TestExpBitEqual)$"}
	if testing.Short() {
		args = append(args, "-test.short")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off", "GENCLUS_EXP_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child with FMA masked: %v\n%s", err, out)
	}
	if bytes.Contains(out, []byte("--- SKIP: TestExpSSE2PathBitEqual")) {
		t.Skip("FMA cannot be masked in this build")
	}
}

func FuzzExp(f *testing.F) {
	for _, x := range expEdgeCases {
		f.Add(x, -x, x/2, x*2, x-1)
	}
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		checkExp(t, a, b, c, d, e)
	})
}

// expSink keeps the benchmark's results observable.
var expSink float64

// BenchmarkExp compares ExpTo with a math.Exp loop on 64 arguments of a
// responsibility shift's range.
func BenchmarkExp(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 64)
	for i := range src {
		src[i] = -20 * rng.Float64()
	}
	dst := make([]float64, len(src))
	b.Run("math.Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range src {
				dst[j] = math.Exp(x)
			}
		}
		expSink += dst[0]
	})
	b.Run("ExpTo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ExpTo(dst, src)
		}
		expSink += dst[0]
	})
}
