package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"genclus/client"
	"genclus/internal/snapshot"
)

// finishJob uploads a network, runs a quick fit to done, and returns the
// job id plus its final status (which carries the registry model id).
func finishJob(t *testing.T, ts *httptest.Server, seed int64) (string, client.Job) {
	t.Helper()
	network, truth := testNetworkJSON(t, 12, seed)
	netID := uploadNetwork(t, ts, network)
	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(seed, 1), Truth: truth})
	status := waitForState(t, ts, jobID, client.StateDone)
	return jobID, status
}

// modelsResponse is the GET /v1/models body.
type modelsResponse struct {
	Models []client.ModelInfo `json:"models"`
}

func listModels(t *testing.T, ts *httptest.Server) modelsResponse {
	t.Helper()
	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/models", nil)
	if code != http.StatusOK {
		t.Fatalf("list models: %d: %s", code, body)
	}
	var out modelsResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestModelRegistryLifecycle drives the registry end to end in memory-only
// mode: a finished fit registers a model, the model lists/gets/exports,
// export → import round-trips byte-identically, the import warm-starts a
// fit, and delete removes it.
func TestModelRegistryLifecycle(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})

	jobID, status := finishJob(t, ts, 1)
	if status.ModelID == "" {
		t.Fatal("finished job carries no model_id")
	}

	models := listModels(t, ts)
	if len(models.Models) != 1 || models.Models[0].ID != status.ModelID {
		t.Fatalf("registry listing wrong: %+v", models)
	}
	info := models.Models[0]
	if info.JobID != jobID || info.K != 2 || info.Objects != 24 || info.Digest == "" || info.SizeBytes <= 0 {
		t.Fatalf("model metadata wrong: %+v", info)
	}
	if info.OptionsDigest == "" {
		t.Fatal("model metadata lacks options digest")
	}

	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/models/"+info.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("get model: %d: %s", code, body)
	}

	// Export: canonical snapshot bytes whose digest matches the listing.
	code, data := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/models/"+info.ID+"/export", nil)
	if code != http.StatusOK {
		t.Fatalf("export: %d", code)
	}
	if got := snapshot.DataDigest(data); got != info.Digest {
		t.Fatalf("export digest %s does not match registry %s", got, info.Digest)
	}
	if _, err := snapshot.Decode(data, snapshot.DefaultLimits()); err != nil {
		t.Fatalf("exported snapshot does not decode: %v", err)
	}

	// Import the exported bytes back: a second registry entry with the
	// same digest, whose export returns the identical bytes.
	code, body = doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/import", data)
	if code != http.StatusCreated {
		t.Fatalf("import: %d: %s", code, body)
	}
	var imported client.ModelInfo
	if err := json.Unmarshal(body, &imported); err != nil {
		t.Fatal(err)
	}
	if imported.Digest != info.Digest || imported.ID == info.ID {
		t.Fatalf("imported entry wrong: %+v", imported)
	}
	if imported.JobID != "" {
		t.Fatalf("imported model claims a local source job: %+v", imported)
	}
	code, reexport := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/models/"+imported.ID+"/export", nil)
	if code != http.StatusOK || !bytes.Equal(reexport, data) {
		t.Fatalf("re-export of imported model not byte-identical (%d bytes vs %d)", len(reexport), len(data))
	}

	// The imported model warm-starts a fit on the same network.
	network, _ := testNetworkJSON(t, 12, 1)
	netID := uploadNetwork(t, ts, network)
	payload, _ := json.Marshal(client.JobSpec{NetworkID: netID, WarmStartFromModel: imported.ID, Options: quickOpts(1, 1)})
	code, body = doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", payload)
	if code != http.StatusAccepted {
		t.Fatalf("warm_start_from_model submit: %d: %s", code, body)
	}
	var warm client.Job
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	waitForState(t, ts, warm.ID, client.StateDone)

	// Delete both; the registry empties and a re-delete 404s.
	for _, id := range []string{info.ID, imported.ID} {
		code, _ = doReq(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/models/"+id, nil)
		if code != http.StatusNoContent {
			t.Fatalf("delete %s: %d", id, code)
		}
	}
	// The warm-started job registered its own model; only those two are gone.
	if left := listModels(t, ts); len(left.Models) != 1 || left.Models[0].JobID != warm.ID {
		t.Fatalf("registry after deletes: %+v", left)
	}
	if code, _ = doReq(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/models/"+info.ID, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: %d", code)
	}

	// Mutually exclusive warm-start sources are rejected.
	payload, _ = json.Marshal(client.JobSpec{NetworkID: netID, WarmStartFrom: jobID, WarmStartFromModel: imported.ID})
	if code, _ = doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", payload); code != http.StatusBadRequest {
		t.Fatalf("dual warm start: %d, want 400", code)
	}
}

// TestImportRejectsBadSnapshots pins the import trust boundary: garbage is
// 400, oversized dimensions are 413, and nothing is registered either way.
func TestImportRejectsBadSnapshots(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, MaxK: 3})

	code, body := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/import", []byte("not a snapshot"))
	if code != http.StatusBadRequest {
		t.Fatalf("garbage import: %d: %s", code, body)
	}

	// A valid snapshot fitted at K=4 exceeds this server's MaxK=3 → 413.
	_, ts2 := testServer(t, Config{Workers: 1})
	network, _ := testNetworkJSON(t, 12, 2)
	netID := uploadNetwork(t, ts2, network)
	jobID := submitJob(t, ts2, client.JobSpec{NetworkID: netID, K: 4, Options: quickOpts(2, 1)})
	waitForState(t, ts2, jobID, client.StateDone)
	models := listModels(t, ts2)
	_, data := doReq(t, ts2.Client(), http.MethodGet, ts2.URL+"/v1/models/"+models.Models[0].ID+"/export", nil)

	code, body = doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/import", data)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized import: %d: %s", code, body)
	}
	if got := listModels(t, ts); len(got.Models) != 0 {
		t.Fatalf("rejected imports registered models: %+v", got)
	}
}

// TestMaxModelsEviction pins the registry cap: the oldest model (memory
// and, with persistence, disk) is evicted when registration overflows.
func TestMaxModelsEviction(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Config{Workers: 1, MaxModels: 2, DataDir: dir})

	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		_, status := finishJob(t, ts, seed)
		ids = append(ids, status.ModelID)
	}
	models := listModels(t, ts)
	if len(models.Models) != 2 {
		t.Fatalf("registry over cap: %+v", models)
	}
	for _, m := range models.Models {
		if m.ID == ids[0] {
			t.Fatal("oldest model survived the cap")
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "models", ids[0]+".bin")); !os.IsNotExist(err) {
		t.Fatal("evicted model's snapshot still on disk")
	}
}

// TestRecoverAfterRestart is the in-process half of the kill-and-recover
// story (the subprocess SIGKILL version lives in the repo root): a server
// opened on a data dir written by a previous instance serves the finished
// job and its model, warm-starts from the recovered snapshot, and leaks no
// goroutines doing it. Durability is established at job-finish time —
// Close performs no flush — so what s2 reads is exactly what a crashed s1
// would have left behind.
func TestRecoverAfterRestart(t *testing.T) {
	dir := t.TempDir()

	before := runtime.NumGoroutine()

	s1, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	jobID, status := finishJob(t, ts1, 3)
	_, data := doReq(t, ts1.Client(), http.MethodGet, ts1.URL+"/v1/models/"+status.ModelID+"/export", nil)
	result1 := fetchResult(t, ts1, jobID)
	ts1.Close()
	s1.Close()

	s2, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		s2.Close()
	}()
	rec := s2.Recovered()
	if rec.Jobs != 1 || rec.Models != 1 || rec.SkippedBlobs != 0 {
		t.Fatalf("recovery stats: %+v", rec)
	}

	// The finished job is served again, result intact — including the
	// final progress report, so a recovered status reads like a live one.
	st := jobStatus(t, ts2, jobID)
	if st.State != client.StateDone || st.ModelID != status.ModelID {
		t.Fatalf("recovered job status: %+v", st)
	}
	if st.Progress == nil || *st.Progress != *status.Progress {
		t.Fatalf("recovered progress %+v, want %+v", st.Progress, status.Progress)
	}
	result2 := fetchResult(t, ts2, jobID)
	if result2.K != result1.K || len(result2.Objects) != len(result1.Objects) {
		t.Fatalf("recovered result shape differs: %+v vs %+v", result2, result1)
	}
	for i, o := range result1.Objects {
		r := result2.Objects[i]
		if r.ID != o.ID || r.Type != o.Type || r.Cluster != o.Cluster {
			t.Fatalf("recovered object %d differs: %+v vs %+v", i, r, o)
		}
	}
	if result1.Metrics == nil || result2.Metrics == nil || *result2.Metrics != *result1.Metrics {
		t.Fatalf("recovered metrics differ: %+v vs %+v", result2.Metrics, result1.Metrics)
	}

	// The recovered model exports byte-identically.
	code, data2 := doReq(t, ts2.Client(), http.MethodGet, ts2.URL+"/v1/models/"+status.ModelID+"/export", nil)
	if code != http.StatusOK || !bytes.Equal(data2, data) {
		t.Fatalf("recovered export differs (%d): %d vs %d bytes", code, len(data2), len(data))
	}

	// warm_start_from_model works against the recovered snapshot; so does
	// warm_start_from against the recovered job.
	network, _ := testNetworkJSON(t, 12, 3)
	netID := uploadNetwork(t, ts2, network)
	for _, req := range []client.JobSpec{
		{NetworkID: netID, WarmStartFromModel: status.ModelID, Options: quickOpts(3, 1)},
		{NetworkID: netID, WarmStartFrom: jobID, Options: quickOpts(3, 1)},
	} {
		id := submitJob(t, ts2, req)
		waitForState(t, ts2, id, client.StateDone)
		res := fetchResult(t, ts2, id)
		if res.EMIterations >= result1.EMIterations {
			t.Fatalf("warm start from recovered state did not converge faster: %d vs %d EM iterations",
				res.EMIterations, result1.EMIterations)
		}
	}

	// No goroutine leak across a full extra server lifecycle.
	ts2.Close()
	s2.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked across restart: before %d, now %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRecoverySkipsCorruptArtifacts plants a damaged snapshot next to a
// healthy one: the healthy model recovers, the damaged one is counted and
// skipped, and the job record pointing at it is dropped as an orphan.
func TestRecoverySkipsCorruptArtifacts(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := testServer(t, Config{Workers: 1, DataDir: dir})
	_, statusA := finishJob(t, ts1, 4)
	jobB, statusB := finishJob(t, ts1, 5)

	// Corrupt model B's snapshot payload on disk.
	path := filepath.Join(dir, "models", statusB.ModelID+".bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec := s2.Recovered()
	if rec.Models != 1 || rec.Jobs != 1 || rec.SkippedBlobs != 1 || rec.OrphanRecords != 1 {
		t.Fatalf("recovery stats after corruption: %+v", rec)
	}
	if _, ok := s2.store.model(statusA.ModelID); !ok {
		t.Fatal("healthy model did not recover")
	}
	if _, ok := s2.store.job(jobB); ok {
		t.Fatal("job with corrupt model recovered anyway")
	}
	// The orphan record was dropped, so a third restart recovers cleanly.
	s3, err := New(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if rec := s3.Recovered(); rec.OrphanRecords != 0 || rec.Models != 1 || rec.Jobs != 1 {
		t.Fatalf("third-restart recovery stats: %+v", rec)
	}
}

// TestEvictedJobAnswersTypedCode pins the eviction distinction: a swept job
// 404s with code "job_evicted" (status, result, and warm_start_from), an
// unknown id 404s with no code, and the persisted record is gone too.
func TestEvictedJobAnswersTypedCode(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	s, ts := testServer(t, Config{Workers: 1, JobTTL: time.Minute, DataDir: dir, now: clock.Now})

	jobID, _ := finishJob(t, ts, 6)
	clock.Advance(2 * time.Minute)
	evicted, _ := s.store.sweep()
	for _, id := range evicted {
		s.dropPersistedJob(id)
	}

	decodeErr := func(body []byte) client.APIError {
		var er client.APIError
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("error body not JSON: %s", body)
		}
		return er
	}
	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs/"+jobID, nil)
	if code != http.StatusNotFound {
		t.Fatalf("evicted status: %d", code)
	}
	if er := decodeErr(body); er.Code != client.CodeJobEvicted {
		t.Fatalf("evicted status body lacks code: %s", body)
	}
	code, body = doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs/"+jobID+"/result", nil)
	if code != http.StatusNotFound {
		t.Fatalf("evicted result: %d", code)
	}
	if er := decodeErr(body); er.Code != client.CodeJobEvicted {
		t.Fatalf("evicted result body lacks code: %s", body)
	}

	network, _ := testNetworkJSON(t, 12, 6)
	netID := uploadNetwork(t, ts, network)
	payload, _ := json.Marshal(client.JobSpec{NetworkID: netID, WarmStartFrom: jobID})
	code, body = doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", payload)
	if code != http.StatusNotFound {
		t.Fatalf("warm start from evicted job: %d", code)
	}
	if er := decodeErr(body); er.Code != client.CodeJobEvicted {
		t.Fatalf("warm-start body lacks code: %s", body)
	}

	code, body = doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs/job_never_existed", nil)
	if code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", code)
	}
	if er := decodeErr(body); er.Code != "" {
		t.Fatalf("unknown job must carry no eviction code: %s", body)
	}

	if _, err := os.Stat(filepath.Join(dir, "jobs", jobID+".bin")); !os.IsNotExist(err) {
		t.Fatal("evicted job's persisted record survived")
	}
	// Models are never TTL-evicted: the registry still serves the fit.
	if got := listModels(t, ts); len(got.Models) != 1 {
		t.Fatalf("model evicted with its job: %+v", got)
	}
}

// TestHealthzCountsModels pins the additive models field.
func TestHealthzCountsModels(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	finishJob(t, ts, 7)
	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var h client.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Models != 1 {
		t.Fatalf("healthz models = %d, want 1", h.Models)
	}
}
