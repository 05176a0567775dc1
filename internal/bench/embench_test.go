package bench

import "testing"

// TestEMIterationSteadyStateZeroAlloc pins the tentpole guarantee of the
// CSR refactor: once the per-chunk accumulators and Θ snapshot buffers are
// warmed up, a serial EM iteration allocates nothing — every piece of
// scratch lives in the state and is reused across iterations. A regression
// here means someone reintroduced per-iteration allocation into the hot
// path (BenchmarkEMIteration in bench_fit_test.go reports the same number
// as allocs/op).
func TestEMIterationSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation breaks exact allocation accounting")
	}
	h, err := NewEMHarness(1)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, h.RunIteration); allocs != 0 {
		t.Fatalf("steady-state EM iteration allocates %v times per run, want 0", allocs)
	}
}

// TestEMIterationParallelSteadyStateZeroAlloc extends the zero-allocation
// contract to the pooled parallel path: the persistent workers, the
// atomic-counter chunk dispatch and the padded accumulators mean a P=16
// iteration must allocate exactly as much as a serial one — nothing.
func TestEMIterationParallelSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation breaks exact allocation accounting")
	}
	for _, p := range []int{4, 16} {
		h, err := NewEMHarness(p)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(5, h.RunIteration); allocs != 0 {
			t.Errorf("steady-state EM iteration at P=%d allocates %v times per run, want 0", p, allocs)
		}
		h.Close()
	}
}

// TestWeatherHarnessSteadyStateZeroAlloc extends the pin to the Gaussian
// hot paths: on the weather Setting 1 harness a warm EM iteration and a
// warm g₁ evaluation allocate nothing (the K=4 Gaussian kernels stage
// their exponentials in stack arrays).
func TestWeatherHarnessSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation breaks exact allocation accounting")
	}
	h, err := NewWeatherEMHarness(1)
	if err != nil {
		t.Fatal(err)
	}
	h.RunObjective() // sizes the term slots
	if allocs := testing.AllocsPerRun(5, h.RunIteration); allocs != 0 {
		t.Errorf("steady-state weather EM iteration allocates %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, func() { h.RunObjective() }); allocs != 0 {
		t.Errorf("warm weather g₁ evaluation allocates %v times per run, want 0", allocs)
	}
}
