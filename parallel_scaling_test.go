package genclus_test

import (
	"os"
	"runtime"
	"testing"
	"time"

	"genclus/internal/bench"
)

// TestEMIterationParallelScaling asserts the NUMA-scale throughput target:
// on a host with at least 16 cores, steady-state EM iterations at P=16 must
// run ≥ 3× faster than serial. The padded per-worker accumulators, the
// persistent pool and the parallelized chunk merge exist for exactly this
// number; the bitwise goldens (TestFitGoldenBitwiseChecksum and its float32
// sibling) pin that the speedup changes no results.
//
// The test is skip-gated on core count because on a smaller host P=16
// measures oversubscription, not scaling — CI enforces the per-parallelism
// latency series through benchgate instead (em-iteration/midsize-p4, -p16
// in BENCH_fit.json). Set GENCLUS_FORCE_SCALING_TEST=1 to run it anyway.
func TestEMIterationParallelScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.NumCPU() < 16 && os.Getenv("GENCLUS_FORCE_SCALING_TEST") == "" {
		t.Skipf("host has %d CPUs; need ≥ 16 for a meaningful P=16 scaling measurement", runtime.NumCPU())
	}

	measure := func(p int) time.Duration {
		h, err := bench.NewEMHarness(p)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		const iters = 20
		best := time.Duration(1<<63 - 1)
		// Best-of-3 batches: scaling assertions on shared hardware need the
		// cleanest batch, not the average polluted by scheduler noise.
		for batch := 0; batch < 3; batch++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				h.RunIteration()
			}
			if d := time.Since(start) / iters; d < best {
				best = d
			}
		}
		return best
	}

	serial := measure(1)
	wide := measure(16)
	speedup := float64(serial) / float64(wide)
	t.Logf("EM iteration: P=1 %v, P=16 %v (%.2fx)", serial, wide, speedup)
	if speedup < 3 {
		t.Errorf("P=16 speedup = %.2fx, want ≥ 3x", speedup)
	}
}
