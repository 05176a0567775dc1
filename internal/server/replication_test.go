package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"genclus/client"
	"genclus/internal/infer"
)

// replicaServer builds a read-only replica of the given primary with a fast
// sync cadence, in-process.
func replicaServer(t *testing.T, primary *httptest.Server, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.ReplicaOf = primary.URL
	if cfg.SyncInterval == 0 {
		cfg.SyncInterval = 20 * time.Millisecond
	}
	return testServer(t, cfg)
}

// waitModelSynced polls the node's model listing until it serves id with the
// wanted digest.
func waitModelSynced(t *testing.T, ts *httptest.Server, id, digest string) {
	t.Helper()
	waitFor(t, 30*time.Second, func() bool {
		for _, m := range listModels(t, ts).Models {
			if m.ID == id && m.Digest == digest {
				return true
			}
		}
		return false
	})
}

func getReplication(t *testing.T, ts *httptest.Server) client.ReplicationStatus {
	t.Helper()
	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/replication", nil)
	if code != http.StatusOK {
		t.Fatalf("replication: status %d: %s", code, body)
	}
	var out client.ReplicationStatus
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReplicaSyncServeDelete drives the in-process replica tier end to end:
// a model fitted on the primary appears on the replica with the same digest,
// serves bitwise-identical assign responses, reports its sync state on
// /v1/replication and /healthz, and vanishes when the primary deletes it.
func TestReplicaSyncServeDelete(t *testing.T) {
	_, primary := testServer(t, Config{Workers: 1})
	network, _ := testNetworkJSON(t, 12, 1)
	netID := uploadNetwork(t, primary, network)
	jobID := submitJob(t, primary, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(1, 1)})
	status := waitForState(t, primary, jobID, client.StateDone)
	res := fetchResult(t, primary, jobID)
	modelID := status.ModelID

	var digest string
	for _, m := range listModels(t, primary).Models {
		if m.ID == modelID {
			digest = m.Digest
		}
	}
	if digest == "" {
		t.Fatal("fitted model missing from primary listing")
	}

	_, rep := replicaServer(t, primary, Config{})
	waitModelSynced(t, rep, modelID, digest)

	// The replica serves the same assignments the primary does, bitwise.
	req := infer.RequestDoc{TopK: 2}
	for _, obj := range res.Objects {
		req.Objects = append(req.Objects, trainingAssignObject(obj, network, t))
	}
	codeP, bodyP := postAssign(t, primary, modelID, req)
	codeR, bodyR := postAssign(t, rep, modelID, req)
	if codeP != http.StatusOK || codeR != http.StatusOK {
		t.Fatalf("assign status: primary %d, replica %d", codeP, codeR)
	}
	if !bytes.Equal(bodyP, bodyR) {
		t.Fatalf("assign bodies differ:\nprimary: %s\nreplica: %s", bodyP, bodyR)
	}

	// Sync state is visible on /v1/replication and /healthz.
	rs := getReplication(t, rep)
	if rs.Mode != "replica" || rs.Models != 1 {
		t.Fatalf("replica /v1/replication: %+v", rs)
	}
	if !rs.Sync.Active || rs.Sync.Primary != primary.URL || rs.Sync.Syncs == 0 || rs.Sync.ModelsSynced != 1 {
		t.Fatalf("replica sync block: %+v", rs.Sync)
	}
	if h := fetchHealth(t, rep); !h.Replication.Active || h.Replication.ModelsSynced != 1 {
		t.Fatalf("replica /healthz replication block: %+v", h.Replication)
	}
	if m := scrapeMetrics(t, rep); !strings.Contains(m, "genclus_replica_models_synced_total 1") {
		t.Fatal("replica /metrics missing genclus_replica_models_synced_total 1")
	}

	// Deletes propagate: the primary drops the model, the replica follows.
	code, body := doReq(t, primary.Client(), http.MethodDelete, primary.URL+"/v1/models/"+modelID, nil)
	if code != http.StatusNoContent {
		t.Fatalf("primary delete: %d: %s", code, body)
	}
	waitFor(t, 30*time.Second, func() bool { return len(listModels(t, rep).Models) == 0 })
	if code, _ := postAssign(t, rep, modelID, req); code != http.StatusNotFound {
		t.Fatalf("assign on deleted model: %d, want 404", code)
	}
}

// TestReplicaReadOnlyRoutes pins the write fence: every mutating route
// answers 403 {"code":"read_only_replica"} on a replica while reads keep
// working.
func TestReplicaReadOnlyRoutes(t *testing.T) {
	_, primary := testServer(t, Config{Workers: 1})
	_, rep := replicaServer(t, primary, Config{})

	mutating := []struct{ method, path string }{
		{http.MethodPost, "/v1/networks"},
		{http.MethodPost, "/v1/networks/n-x/edges"},
		{http.MethodPost, "/v1/networks/n-x/objects"},
		{http.MethodPatch, "/v1/networks/n-x/attributes"},
		{http.MethodPost, "/v1/jobs"},
		{http.MethodDelete, "/v1/jobs/j-x"},
		{http.MethodPost, "/v1/models/import"},
		{http.MethodDelete, "/v1/models/m-x"},
	}
	for _, tc := range mutating {
		code, body := doReq(t, rep.Client(), tc.method, rep.URL+tc.path, []byte(`{}`))
		if code != http.StatusForbidden {
			t.Errorf("%s %s: status %d, want 403", tc.method, tc.path, code)
			continue
		}
		var er client.APIError
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Code != client.CodeReadOnlyReplica {
			t.Errorf("%s %s: code %q, want %q", tc.method, tc.path, er.Code, client.CodeReadOnlyReplica)
		}
		if len(er.RequestID) != 32 {
			t.Errorf("%s %s: request_id %q, want the 32-hex trace id", tc.method, tc.path, er.RequestID)
		}
	}

	// Reads stay open — and the same routes still mutate on the primary.
	if code, body := doReq(t, rep.Client(), http.MethodGet, rep.URL+"/v1/models", nil); code != http.StatusOK {
		t.Fatalf("replica GET /v1/models: %d: %s", code, body)
	}
	network, _ := testNetworkJSON(t, 12, 1)
	uploadNetwork(t, primary, network)
}

// TestReplicationEndpointPrimaryMode checks the endpoint's shape on a
// normal (non-replica) daemon: mode "primary", inactive zero sync block.
func TestReplicationEndpointPrimaryMode(t *testing.T) {
	_, ts := testServer(t, Config{})
	rs := getReplication(t, ts)
	if rs.Mode != "primary" || rs.Models != 0 {
		t.Fatalf("primary /v1/replication: %+v", rs)
	}
	if rs.Sync.Active || rs.Sync.Syncs != 0 || rs.Sync.Primary != "" {
		t.Fatalf("primary sync block not zero: %+v", rs.Sync)
	}
	if h := fetchHealth(t, ts); h.Replication.Active {
		t.Fatalf("primary /healthz replication block: %+v", h.Replication)
	}
}

// TestReplicaRestartResume checks the digest skip across a restart: a
// replica on a data dir recovers its synced models from disk and
// re-downloads nothing whose digest still matches the primary's.
func TestReplicaRestartResume(t *testing.T) {
	// Primary behind a counting proxy handler so the test can see every
	// export the replica actually pulls.
	ps, err := New(Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	var exportHits atomic.Int64
	inner := ps.Handler()
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/export") {
			exportHits.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		primary.Close()
		ps.Close()
	})

	modelID, _ := assignFixture(t, primary)
	var digest string
	for _, m := range listModels(t, primary).Models {
		if m.ID == modelID {
			digest = m.Digest
		}
	}

	dir := t.TempDir()
	mk := func() (*Server, *httptest.Server) {
		s, err := New(Config{
			ReplicaOf:    primary.URL,
			SyncInterval: 20 * time.Millisecond,
			DataDir:      dir,
			Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(s.Handler())
	}

	rs, rts := mk()
	waitModelSynced(t, rts, modelID, digest)
	if got := exportHits.Load(); got != 1 {
		t.Fatalf("exports before restart: %d, want 1", got)
	}
	rts.Close()
	rs.Close()

	// The restarted replica recovers the model from its data dir, serves it
	// immediately, and its sync passes pull nothing.
	rs2, rts2 := mk()
	t.Cleanup(func() {
		rts2.Close()
		rs2.Close()
	})
	if rec := rs2.Recovered(); rec.Models != 1 {
		t.Fatalf("recovered models: %d, want 1", rec.Models)
	}
	waitModelSynced(t, rts2, modelID, digest)
	waitFor(t, 30*time.Second, func() bool { return getReplication(t, rts2).Sync.Syncs >= 2 })
	if got := exportHits.Load(); got != 1 {
		t.Fatalf("exports after restart: %d, want 1 (digest match must skip the download)", got)
	}
}

// TestReplicaModelUpdateSwapsEngine covers an id whose bytes change on the
// primary (re-import under the same id is not possible, but delete + refit
// produces a fresh id; the update path is exercised directly through the
// registry adapter): installing new bytes under an existing id replaces the
// served snapshot and drops the stale engine.
func TestReplicaModelUpdateSwapsEngine(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	modelID, _ := assignFixture(t, ts)

	e, ok := s.store.model(modelID)
	if !ok {
		t.Fatal("fitted model missing from store")
	}
	data, err := s.exportBytes(e)
	if err != nil {
		t.Fatal(err)
	}

	reg := replicaRegistry{s}
	if err := reg.Install("synced-copy", data); err != nil {
		t.Fatalf("install: %v", err)
	}
	if got := reg.LocalModels()["synced-copy"]; got != e.digest {
		t.Fatalf("installed digest %q, want %q", got, e.digest)
	}
	// Same digest again: a no-op from the syncer's perspective, but Install
	// must stay idempotent if called anyway.
	if err := reg.Install("synced-copy", data); err != nil {
		t.Fatalf("re-install: %v", err)
	}
	if err := reg.Remove("synced-copy"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, ok := reg.LocalModels()["synced-copy"]; ok {
		t.Fatal("model survives Remove")
	}
	if err := reg.Remove("synced-copy"); err != nil {
		t.Fatalf("remove absent id: %v", err)
	}
	// Corrupt bytes never install: the snapshot codec's CRC rejects them.
	bad := append([]byte{}, data...)
	bad[len(bad)/2] ^= 0xff
	if err := reg.Install("corrupt", bad); err == nil {
		t.Fatal("corrupt snapshot installed")
	}
}
