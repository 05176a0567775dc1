package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"genclus/client"
	"genclus/internal/deltalog"
	"genclus/internal/hin"
	diskstore "genclus/internal/store"
)

// mutate posts one mutation and returns status + decoded response (zero on
// non-200).
func mutate(t *testing.T, ts *httptest.Server, method, path, doc string) (int, client.MutationResult) {
	t.Helper()
	code, body := doReq(t, ts.Client(), method, ts.URL+path, []byte(doc))
	var resp client.MutationResult
	if code == http.StatusOK {
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("mutation response not JSON: %s", body)
		}
	}
	return code, resp
}

func supStatus(t *testing.T, ts *httptest.Server, netID string) client.SupervisorStatus {
	t.Helper()
	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/networks/"+netID+"/supervisor", nil)
	if code != http.StatusOK {
		t.Fatalf("supervisor status: %d: %s", code, body)
	}
	var resp client.SupervisorStatus
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestMutateNetwork drives all three mutation surfaces against a live
// network and pins the response contract: generation monotone, totals
// reflecting the new view, typed 400/404/413 for bad input.
func TestMutateNetwork(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, SupervisorDisabled: true})
	network, _ := testNetworkJSON(t, 5, 1)
	netID := uploadNetwork(t, ts, network)

	// Add a new object with a link into the existing network.
	code, resp := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/objects",
		`{"objects":[{"id":"fresh1","type":"doc","terms":{"text":[{"t":3,"c":2}]}}],"links":[{"from":"fresh1","to":"doc0000","rel":"cites","w":1}]}`)
	if code != http.StatusOK {
		t.Fatalf("objects mutation: %d", code)
	}
	if resp.Generation != 1 || resp.Objects != 11 || resp.DeltaLogDepth != 1 {
		t.Fatalf("objects response: %+v", resp)
	}

	// Add and remove edges in one request.
	code, resp = mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/edges",
		`{"add":[{"from":"doc0001","to":"fresh1","rel":"cites","w":2}],"remove":[{"from":"fresh1","to":"doc0000","rel":"cites"}]}`)
	if code != http.StatusOK || resp.Generation != 2 {
		t.Fatalf("edges mutation: %d %+v", code, resp)
	}

	// Patch attributes, including a clear.
	code, resp = mutate(t, ts, http.MethodPatch, "/v1/networks/"+netID+"/attributes",
		`{"set":[{"id":"fresh1","terms":{"text":[{"t":7,"c":1}]}},{"id":"doc0000","terms":{"text":[]}}]}`)
	if code != http.StatusOK || resp.Generation != 3 || resp.DeltaLogDepth != 3 {
		t.Fatalf("attributes mutation: %d %+v", code, resp)
	}

	// The status endpoint tracks the generation even without a supervisor.
	if st := supStatus(t, ts, netID); st.Generation != 3 || st.Active {
		t.Fatalf("status after three mutations: %+v", st)
	}

	// Typed failures: malformed 400, semantic contradiction 400, unknown
	// network 404, oversized 413.
	if code, _ := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/edges", `{`); code != http.StatusBadRequest {
		t.Fatalf("malformed mutation: %d, want 400", code)
	}
	if code, _ := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/edges",
		`{"add":[{"from":"ghost","to":"doc0000","rel":"cites","w":1}]}`); code != http.StatusBadRequest {
		t.Fatalf("contradictory mutation: %d, want 400", code)
	}
	if code, _ := mutate(t, ts, http.MethodPost, "/v1/networks/nope/edges",
		`{"add":[{"from":"a","to":"b","rel":"r","w":1}]}`); code != http.StatusNotFound {
		t.Fatalf("unknown network: %d, want 404", code)
	}
	// Failed mutations do not advance the generation.
	if code, resp := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/edges",
		`{"add":[{"from":"doc0001","to":"doc0002","rel":"cites","w":1}]}`); code != http.StatusOK || resp.Generation != 4 {
		t.Fatalf("post-failure mutation: %d gen %d, want 200 gen 4", code, resp.Generation)
	}

	h := fetchHealth(t, ts)
	if h.Mutation.Mutations != 4 || h.Mutation.DeltaLogDepth != 4 {
		t.Fatalf("healthz mutation block: %+v", h.Mutation)
	}
	if h.Mutation.Supervisors != 0 {
		t.Fatalf("supervisors running despite SupervisorDisabled: %+v", h.Mutation)
	}
}

// TestMutateLimits pins the 413 path: a mutation pushing the network past
// the configured caps is rejected and the view stays put.
func TestMutateLimits(t *testing.T) {
	_, ts := testServer(t, Config{
		Workers:            1,
		SupervisorDisabled: true,
		Limits:             hin.Limits{MaxObjects: 12, MaxLinks: 100, MaxVocab: 20, MaxObservations: 1000, MaxAttributes: 4},
	})
	network, _ := testNetworkJSON(t, 5, 1)
	netID := uploadNetwork(t, ts, network)

	// 3 new objects would make 13 > 12: post-apply CheckNetwork trips.
	code, _ := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/objects",
		`{"objects":[{"id":"n1","type":"doc"},{"id":"n2","type":"doc"},{"id":"n3","type":"doc"}]}`)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit mutation: %d, want 413", code)
	}
	if st := supStatus(t, ts, netID); st.Generation != 0 {
		t.Fatalf("rejected mutation advanced the generation: %+v", st)
	}
	// A within-limits mutation still lands, on the untouched 10-object view.
	code, resp := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/objects",
		`{"objects":[{"id":"ok1","type":"doc"}]}`)
	if code != http.StatusOK || resp.Objects != 11 {
		t.Fatalf("rejected mutation left the view dirty: %d %+v", code, resp)
	}
}

// TestMutationRecovery pins the tentpole durability contract: base + delta
// log survive a cold restart, the network comes back at its exact
// generation under its original ID, and the sequence continues.
func TestMutationRecovery(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Config{Workers: 1, DataDir: dir, SupervisorDisabled: true})
	network, _ := testNetworkJSON(t, 5, 1)
	netID := uploadNetwork(t, ts, network)

	for i, doc := range []string{
		`{"objects":[{"id":"r1","type":"doc"}],"links":[{"from":"r1","to":"doc0000","rel":"cites","w":1}]}`,
		`{"add":[{"from":"doc0001","to":"r1","rel":"cites","w":1}]}`,
		`{"set":[{"id":"r1","terms":{"text":[{"t":1,"c":1}]}}]}`,
	} {
		method, path := http.MethodPost, "/v1/networks/"+netID+"/edges"
		switch i {
		case 0:
			path = "/v1/networks/" + netID + "/objects"
		case 2:
			method, path = http.MethodPatch, "/v1/networks/"+netID+"/attributes"
		}
		if code, _ := mutate(t, ts, method, path, doc); code != http.StatusOK {
			t.Fatalf("mutation %d: %d", i, code)
		}
	}

	// The base document and three delta records are on disk.
	if ids, err := deltalog.ListNetworkIDs(mustStore(t, dir)); err != nil || len(ids) != 1 || ids[0] != netID {
		t.Fatalf("delta records on disk: %v, %v", ids, err)
	}

	ts.Close()

	s2, ts2 := testServer(t, Config{Workers: 1, DataDir: dir, SupervisorDisabled: true})
	rec := s2.Recovered()
	if rec.Networks != 1 || rec.Mutations != 3 {
		t.Fatalf("recovery stats: %+v", rec)
	}
	if st := supStatus(t, ts2, netID); st.Generation != 3 || st.DeltaLogDepth != 3 {
		t.Fatalf("recovered network status: %+v", st)
	}
	// The recovered view has all 11 objects (base 10 + replayed r1), and
	// the generation and log sequence resume where they left off.
	code, resp := mutate(t, ts2, http.MethodPost, "/v1/networks/"+netID+"/edges",
		`{"add":[{"from":"doc0002","to":"r1","rel":"cites","w":1}]}`)
	if code != http.StatusOK || resp.Generation != 4 || resp.DeltaLogDepth != 4 || resp.Objects != 11 {
		t.Fatalf("post-recovery mutation: %d %+v", code, resp)
	}
	if st := supStatus(t, ts2, netID); st.Generation != 4 || st.Active {
		t.Fatalf("post-recovery supervisor status: %+v", st)
	}
}

// TestMutationIsolatesInFlightViews pins immutability: a fit submitted
// before a mutation runs against the pre-mutation view even if the
// mutation publishes first.
func TestMutationIsolatesInFlightViews(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, SupervisorDisabled: true})
	network, _ := testNetworkJSON(t, 10, 1)
	netID := uploadNetwork(t, ts, network)

	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(7, 1)})
	if code, _ := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/objects",
		`{"objects":[{"id":"late1","type":"doc"}]}`); code != http.StatusOK {
		t.Fatal("mutation failed")
	}
	waitForState(t, ts, jobID, client.StateDone)
	res := fetchResult(t, ts, jobID)
	if len(res.Objects) != 20 {
		t.Fatalf("pre-mutation fit saw %d objects, want the pinned 20", len(res.Objects))
	}
	for _, o := range res.Objects {
		if o.ID == "late1" {
			t.Fatal("fit leaked a post-submit mutation into its view")
		}
	}
}

// mustStore opens the blob store rooted at the daemon data dir for
// test-side inspection.
func mustStore(t *testing.T, dir string) *diskstore.Store {
	t.Helper()
	st, err := diskstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSupervisorEvictionCleanup pins the TTL-eviction fix: evicting a
// mutated network stops its supervisor goroutine and removes its delta log
// and base document from disk — no goroutine leak, no orphan files.
func TestSupervisorEvictionCleanup(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	s, ts := testServer(t, Config{
		Workers:            1,
		DataDir:            dir,
		JobTTL:             time.Minute,
		SweepEvery:         10 * time.Millisecond,
		SupervisorInterval: 5 * time.Millisecond,
		now:                clock.Now,
	})
	network, _ := testNetworkJSON(t, 5, 1)
	netID := uploadNetwork(t, ts, network)

	if code, _ := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/objects",
		`{"objects":[{"id":"e1","type":"doc"}]}`); code != http.StatusOK {
		t.Fatal("mutation failed")
	}
	waitFor(t, 5*time.Second, func() bool { return s.store.numSupervisors() == 1 })
	if entries, _ := os.ReadDir(filepath.Join(dir, deltalog.Bucket)); len(entries) != 1 {
		t.Fatalf("expected 1 delta record on disk, found %d", len(entries))
	}

	// Past the TTL the janitor must retire the network: supervisor stopped,
	// log and base purged. Supervisor polling itself must not refresh the
	// TTL (networkState does not touch lastUsed).
	clock.Advance(2 * time.Minute)
	waitFor(t, 10*time.Second, func() bool { return s.store.numSupervisors() == 0 })
	waitFor(t, 10*time.Second, func() bool {
		deltas, _ := os.ReadDir(filepath.Join(dir, deltalog.Bucket))
		bases, _ := os.ReadDir(filepath.Join(dir, bucketNetworks))
		return len(deltas) == 0 && len(bases) == 0
	})
	if code, _ := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/networks/"+netID+"/supervisor", nil); code != http.StatusNotFound {
		t.Fatalf("evicted network's supervisor endpoint: %d, want 404", code)
	}
	// A fresh upload and mutation still work — the machinery is not wedged.
	netID2 := uploadNetwork(t, ts, network)
	if code, _ := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID2+"/objects",
		`{"objects":[{"id":"e2","type":"doc"}]}`); code != http.StatusOK {
		t.Fatal("post-eviction mutation failed")
	}
}
