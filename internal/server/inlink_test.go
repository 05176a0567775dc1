package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"genclus/client"
	"genclus/internal/core"
	"genclus/internal/hin"
)

// allocatedBy returns the bytes f allocates. It reads the memory
// statistics around one call, since testing.AllocsPerRun's warm-up call
// would do whatever a first call does before counting.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// uploadMutated uploads the two-topic test network, applies one edge
// mutation and returns the network id with its generation-1 view.
func uploadMutated(t *testing.T, s *Server, ts *httptest.Server) (string, *hin.Network) {
	t.Helper()
	network, _ := testNetworkJSON(t, 20, 1)
	netID := uploadNetwork(t, ts, network)
	if code, _ := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/edges",
		`{"add":[{"from":"doc0000","to":"doc0001","rel":"cites","w":2}]}`); code != http.StatusOK {
		t.Fatalf("edge mutation: %d", code)
	}
	net, gen, ok := s.store.networkState(netID)
	if !ok || gen != 1 {
		t.Fatalf("network state: ok=%v generation=%d, want generation 1", ok, gen)
	}
	return netID, net
}

// inLinkViewBuilt reports whether net's merged in-link view already
// exists: building it allocates 24 B per edge. The check itself builds it.
func inLinkViewBuilt(net *hin.Network) bool {
	return allocatedBy(func() { net.InLinkArrays() }) < uint64(24*net.NumEdges())
}

// finishedJob submits spec, waits for it and returns the job.
func finishedJob(t *testing.T, s *Server, ts *httptest.Server, spec client.JobSpec) *job {
	t.Helper()
	id := submitJob(t, ts, spec)
	waitForState(t, ts, id, client.StateDone)
	j, ok := s.store.job(id)
	if !ok {
		t.Fatalf("job %s not in the store", id)
	}
	return j
}

// TestMutationAndDefaultFitLeaveInLinkViewUnbuilt: neither an upload, a
// mutation publish nor a default fit builds the merged in-link view, which
// only symmetric propagation and the baselines read.
func TestMutationAndDefaultFitLeaveInLinkViewUnbuilt(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, SupervisorDisabled: true})
	netID, net := uploadMutated(t, s, ts)
	finishedJob(t, s, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(3, 1)})
	if inLinkViewBuilt(net) {
		t.Fatal("the in-link view of the mutated generation was built before anything read it")
	}
}

// TestSymmetricJobOnUnpreparedGeneration: a symmetric_propagation job on a
// mutated generation that nothing has prepared builds the view itself and
// fits exactly what core.Fit fits on the same generation.
func TestSymmetricJobOnUnpreparedGeneration(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, SupervisorDisabled: true})
	// The twin goes through the same upload and mutation and shows that
	// this path leaves the view unbuilt; checking net itself would build it.
	_, twin := uploadMutated(t, s, ts)
	if inLinkViewBuilt(twin) {
		t.Fatal("upload plus mutation built the in-link view")
	}
	netID, net := uploadMutated(t, s, ts)

	opts := quickOpts(5, 2)
	sym := true
	opts.SymmetricPropagation = &sym
	j := finishedJob(t, s, ts, client.JobSpec{NetworkID: netID, K: 2, Options: opts})
	snap := j.snapshot()
	j.mu.Lock()
	fitOpts := j.opts
	j.mu.Unlock()
	if !fitOpts.SymmetricPropagation {
		t.Fatal("job options lost symmetric_propagation")
	}
	want, err := core.Fit(net, fitOpts)
	if err != nil {
		t.Fatal(err)
	}
	got := snap.result
	for v := range want.Theta {
		for k, x := range want.Theta[v] {
			if math.Float64bits(got.Theta[v][k]) != math.Float64bits(x) {
				t.Fatalf("Θ[%d][%d] = %v, core.Fit %v", v, k, got.Theta[v][k], x)
			}
		}
	}
	for r, g := range want.GammaVec {
		if math.Float64bits(got.GammaVec[r]) != math.Float64bits(g) {
			t.Fatalf("γ[%d] = %v, core.Fit %v", r, got.GammaVec[r], g)
		}
	}
}
