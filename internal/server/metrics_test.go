package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"genclus/client"
	"genclus/internal/infer"
	"genclus/internal/metrics"
)

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d: %s", code, body)
	}
	return string(body)
}

func fetchHealth(t *testing.T, ts *httptest.Server) client.Health {
	t.Helper()
	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	var h client.Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestMetricsEndpoint drives a fit and an assign, then checks that GET
// /metrics serves the Prometheus text format with the fit, assign, cache,
// persistence, and HTTP families populated.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	modelID, res := assignFixture(t, ts)

	obj := res.Objects[0]
	req := infer.RequestDoc{Objects: []infer.ObjectDoc{{ID: "q0", Links: []infer.LinkDoc{{Relation: "cites", To: obj.ID, Weight: 1}}}}}
	if code, body := postAssign(t, ts, modelID, req); code != http.StatusOK {
		t.Fatalf("assign: %d: %s", code, body)
	}

	hr, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("content type %q, want %q", ct, metrics.ContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(hr.Body); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"# TYPE genclus_fit_jobs_total counter",
		`genclus_fit_jobs_total{state="done"} 1`,
		"genclus_fit_em_iterations_count 1",
		"genclus_fit_queue_wait_seconds_count 1",
		"genclus_fit_run_seconds_count 1",
		"genclus_assign_requests_total 1",
		"genclus_assign_objects_total 1",
		"genclus_assign_engine_passes_total 1",
		"genclus_assign_engine_cache_misses_total 1",
		"genclus_assign_pass_seconds_count 1",
		"genclus_assign_pass_occupancy_count 1",
		"genclus_assign_queue_depth 0",
		"genclus_assign_in_flight 0",
		"genclus_persist_failures_total 0",
		"genclus_models 1",
		`genclus_jobs{state="done"} 1`,
		"# TYPE genclus_http_request_duration_seconds histogram",
		`route="POST /v1/models/{id}/assign"`,
		`genclus_http_requests_total{route="POST /v1/jobs",code="202"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("scrape:\n%s", out)
	}
}

// healthzMetricNames pins the /healthz counter → /metrics name mapping the
// parity lint enforces. Adding a counter to the healthz payload without a
// /metrics counterpart (and a row here) fails TestHealthzMetricsParity.
var healthzMetricNames = map[string]string{
	"networks":                   "genclus_networks",
	"models":                     "genclus_models",
	"jobs":                       "genclus_jobs",
	"persist_failures":           "genclus_persist_failures_total",
	"assign.requests":            "genclus_assign_requests_total",
	"assign.objects":             "genclus_assign_objects_total",
	"assign.batched_requests":    "genclus_assign_batched_requests_total",
	"assign.engine_passes":       "genclus_assign_engine_passes_total",
	"assign.engine_cache_hits":   "genclus_assign_engine_cache_hits_total",
	"assign.engine_cache_misses": "genclus_assign_engine_cache_misses_total",
	"assign.shed_requests":       "genclus_assign_shed_total",

	"mutation.mutations":        "genclus_network_mutations_total",
	"mutation.delta_log_depth":  "genclus_deltalog_depth",
	"mutation.supervisors":      "genclus_supervisors",
	"mutation.drift_score":      "genclus_supervisor_drift_score",
	"mutation.refits_triggered": "genclus_supervisor_refits_triggered_total",
	"mutation.refits_succeeded": "genclus_supervisor_refits_succeeded_total",
	"mutation.refits_failed":    "genclus_supervisor_refits_failed_total",

	"replication.lag_seconds":    "genclus_replica_lag_seconds",
	"replication.syncs":          "genclus_replica_syncs_total",
	"replication.sync_errors":    "genclus_replica_sync_errors_total",
	"replication.models_synced":  "genclus_replica_models_synced_total",
	"replication.models_deleted": "genclus_replica_models_deleted_total",

	"runtime.goroutines":             "genclus_goroutines",
	"runtime.heap_alloc_bytes":       "genclus_heap_alloc_bytes",
	"runtime.gc_pause_total_seconds": "genclus_gc_pause_total_seconds",
	"runtime.gc_cycles":              "genclus_gc_cycles_total",
}

// healthzNonCounters are healthz fields that are liveness/config metadata,
// not counters — exempt from the parity requirement.
var healthzNonCounters = map[string]bool{
	"status":         true,
	"uptime_seconds": true,
	"workers":        true,

	// Replication identity/diagnostic fields: role metadata and the last
	// error message, not counters.
	"replication.active":               true,
	"replication.primary":              true,
	"replication.consecutive_failures": true,
	"replication.last_sync":            true,
	"replication.last_error":           true,
}

// TestHealthzMetricsParity is the parity lint: every counter surfaced on
// /healthz must have a pinned /metrics counterpart, and every pinned name
// must actually appear on a fresh server's scrape (instruments are
// pre-created, not born on first increment).
func TestHealthzMetricsParity(t *testing.T) {
	var fields []string
	collect := func(prefix string, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			tag := strings.Split(f.Tag.Get("json"), ",")[0]
			if tag == "" || tag == "-" {
				continue
			}
			if f.Type == reflect.TypeOf(client.AssignStats{}) {
				continue // flattened below under "assign."
			}
			if f.Type == reflect.TypeOf(client.MutationStats{}) {
				continue // flattened below under "mutation."
			}
			if f.Type == reflect.TypeOf(client.ReplicationStats{}) {
				continue // flattened below under "replication."
			}
			if f.Type == reflect.TypeOf(client.RuntimeStats{}) {
				continue // flattened below under "runtime."
			}
			fields = append(fields, prefix+tag)
		}
	}
	collect("", reflect.TypeOf(client.Health{}))
	collect("assign.", reflect.TypeOf(client.AssignStats{}))
	collect("mutation.", reflect.TypeOf(client.MutationStats{}))
	collect("replication.", reflect.TypeOf(client.ReplicationStats{}))
	collect("runtime.", reflect.TypeOf(client.RuntimeStats{}))

	for _, f := range fields {
		if healthzNonCounters[f] {
			continue
		}
		if _, ok := healthzMetricNames[f]; !ok {
			t.Errorf("healthz field %q has no pinned /metrics counterpart; add the metric and a healthzMetricNames row", f)
		}
	}
	for f := range healthzMetricNames {
		found := false
		for _, have := range fields {
			if have == f {
				found = true
			}
		}
		if !found {
			t.Errorf("healthzMetricNames pins %q, which is no longer a healthz field", f)
		}
	}

	_, ts := testServer(t, Config{Workers: 1})
	out := scrapeMetrics(t, ts)
	for field, metric := range healthzMetricNames {
		// Name must appear as a series or TYPE line even before any
		// increment (pre-created instruments).
		if !strings.Contains(out, "# TYPE "+metric+" ") {
			t.Errorf("healthz %q: metric %s absent from a fresh scrape", field, metric)
		}
	}
}

// blockedPassServer builds a server whose engine passes block until the
// returned release func is called; entered receives one token per pass
// start. The hook is installed before the listener starts accepting, so
// its write is ordered before any handler goroutine reads it.
func blockedPassServer(t *testing.T, cfg Config) (*Server, *httptest.Server, chan struct{}, func()) {
	t.Helper()
	entered := make(chan struct{}, 64)
	block := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	t.Cleanup(release)
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.assignPassHook = func() {
		entered <- struct{}{}
		<-block
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts, entered, release
}

// singleLinkAssign posts a one-object assign request and returns status +
// body.
func singleLinkAssign(t *testing.T, ts *httptest.Server, modelID, targetID, qid string) (int, []byte) {
	t.Helper()
	req := infer.RequestDoc{Objects: []infer.ObjectDoc{{ID: qid, Links: []infer.LinkDoc{{Relation: "cites", To: targetID, Weight: 1}}}}}
	payload, _ := json.Marshal(req)
	hr, err := http.Post(ts.URL+"/v1/models/"+modelID+"/assign", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("assign %s: %v", qid, err)
	}
	defer hr.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(hr.Body); err != nil {
		t.Fatal(err)
	}
	return hr.StatusCode, buf.Bytes()
}

// assertOverloaded checks the typed 429 contract: code "overloaded" in the
// body and a positive Retry-After header.
func assertOverloaded(t *testing.T, code int, body []byte, header http.Header) {
	t.Helper()
	if code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", code, body)
	}
	var er client.APIError
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("429 body not JSON: %s", body)
	}
	if er.Code != client.CodeOverloaded {
		t.Fatalf("429 code %q, want %q (%s)", er.Code, client.CodeOverloaded, body)
	}
	if len(er.RequestID) != 32 {
		t.Fatalf("429 request_id %q, want the 32-hex trace id (%s)", er.RequestID, body)
	}
	if header != nil && header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
}

// TestAssignOverloadQueueFull saturates one model's assign queue behind a
// blocked engine pass and checks the full shedding contract: typed 429s
// with Retry-After past the cap, the shed counter visible on /healthz and
// /metrics, full recovery once the pass drains, and no leaked goroutines.
func TestAssignOverloadQueueFull(t *testing.T) {
	const maxQueue = 4
	s, ts, entered, release := blockedPassServer(t, Config{
		Workers:        1,
		MaxAssignBatch: 4,
		MaxAssignQueue: maxQueue,
	})
	modelID, res := assignFixture(t, ts)
	target := res.Objects[0].ID
	baseline := runtime.NumGoroutine()

	// Leader request enters the engine pass and blocks there.
	leaderDone := make(chan int, 1)
	go func() {
		code, _ := singleLinkAssign(t, ts, modelID, target, "leader")
		leaderDone <- code
	}()
	<-entered

	// Fill the queue to exactly the cap behind the blocked leader.
	var wg sync.WaitGroup
	queuedCodes := make([]int, maxQueue)
	for i := 0; i < maxQueue; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			queuedCodes[i], _ = singleLinkAssign(t, ts, modelID, target, fmt.Sprintf("q%d", i))
		}(i)
	}
	entry, ok := s.store.model(modelID)
	if !ok {
		t.Fatal("model vanished")
	}
	waitFor(t, 10*time.Second, func() bool {
		s.assignCache.mu.Lock()
		ce := s.assignCache.entries[entry.digest]
		s.assignCache.mu.Unlock()
		return ce != nil && ce.waiting.Load() == maxQueue
	})

	// One more query object must be shed, typed.
	req := infer.RequestDoc{Objects: []infer.ObjectDoc{{ID: "shed", Links: []infer.LinkDoc{{Relation: "cites", To: target, Weight: 1}}}}}
	payload, _ := json.Marshal(req)
	hr, err := http.Post(ts.URL+"/v1/models/"+modelID+"/assign", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(hr.Body)
	hr.Body.Close()
	assertOverloaded(t, hr.StatusCode, buf.Bytes(), hr.Header)

	if shed := fetchHealth(t, ts).Assign.ShedRequests; shed != 1 {
		t.Fatalf("healthz shed_requests = %d, want 1", shed)
	}
	if out := scrapeMetrics(t, ts); !strings.Contains(out, `genclus_assign_shed_total{reason="queue_full"} 1`) {
		t.Fatalf("shed counter missing from /metrics:\n%s", out)
	}

	// Drain: everything queued (and the leader) completes, and the model
	// serves fresh traffic again.
	release()
	wg.Wait()
	if code := <-leaderDone; code != http.StatusOK {
		t.Fatalf("leader finished %d, want 200", code)
	}
	for i, code := range queuedCodes {
		if code != http.StatusOK {
			t.Fatalf("queued request %d finished %d, want 200", i, code)
		}
	}
	if code, body := singleLinkAssign(t, ts, modelID, target, "recovered"); code != http.StatusOK {
		t.Fatalf("post-drain assign: %d: %s", code, body)
	}
	if shed := fetchHealth(t, ts).Assign.ShedRequests; shed != 1 {
		t.Fatalf("shed_requests moved to %d after recovery, want still 1", shed)
	}

	// The queue-depth gauge returns to zero and no goroutine outlives its
	// request.
	waitFor(t, 10*time.Second, func() bool {
		return strings.Contains(scrapeMetrics(t, ts), "genclus_assign_queue_depth 0")
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		ts.Client().CloseIdleConnections()
		http.DefaultClient.CloseIdleConnections()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after overload: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAssignOverloadInFlightCap holds one request inside its engine pass
// and checks the global in-flight cap sheds the next one with the in_flight
// reason, recovering after release.
func TestAssignOverloadInFlightCap(t *testing.T) {
	_, ts, entered, release := blockedPassServer(t, Config{
		Workers:           1,
		MaxAssignInFlight: 1,
	})
	modelID, res := assignFixture(t, ts)
	target := res.Objects[0].ID

	firstDone := make(chan int, 1)
	go func() {
		code, _ := singleLinkAssign(t, ts, modelID, target, "held")
		firstDone <- code
	}()
	<-entered

	req := infer.RequestDoc{Objects: []infer.ObjectDoc{{ID: "over", Links: []infer.LinkDoc{{Relation: "cites", To: target, Weight: 1}}}}}
	payload, _ := json.Marshal(req)
	hr, err := http.Post(ts.URL+"/v1/models/"+modelID+"/assign", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(hr.Body)
	hr.Body.Close()
	assertOverloaded(t, hr.StatusCode, buf.Bytes(), hr.Header)
	if out := scrapeMetrics(t, ts); !strings.Contains(out, `genclus_assign_shed_total{reason="in_flight"} 1`) {
		t.Fatal("in_flight shed not counted on /metrics")
	}

	release()
	if code := <-firstDone; code != http.StatusOK {
		t.Fatalf("held request finished %d, want 200", code)
	}
	if code, _ := singleLinkAssign(t, ts, modelID, target, "after"); code != http.StatusOK {
		t.Fatalf("post-release assign: %d", code)
	}
}

// TestAssignInFlightGaugeUncapped: with the in-flight cap disabled,
// genclus_assign_in_flight still counts the requests inside admission
// control, and drops back to 0 once they finish.
func TestAssignInFlightGaugeUncapped(t *testing.T) {
	_, ts, entered, release := blockedPassServer(t, Config{
		Workers:           1,
		MaxAssignInFlight: -1,
	})
	// Released before the server's cleanup closes it, even on failure: the
	// close would otherwise wait on the held request forever.
	defer release()
	modelID, res := assignFixture(t, ts)
	target := res.Objects[0].ID

	heldDone := make(chan int, 1)
	go func() {
		code, _ := singleLinkAssign(t, ts, modelID, target, "held")
		heldDone <- code
	}()
	<-entered
	if out := scrapeMetrics(t, ts); !strings.Contains(out, "genclus_assign_in_flight 1\n") {
		t.Fatalf("in-flight gauge does not count the held request with the cap off:\n%s", out)
	}

	release()
	if code := <-heldDone; code != http.StatusOK {
		t.Fatalf("held request finished %d, want 200", code)
	}
	waitFor(t, 10*time.Second, func() bool {
		return strings.Contains(scrapeMetrics(t, ts), "genclus_assign_in_flight 0\n")
	})
}

// TestAssignRateLimit drives the token bucket on a fake clock: the burst
// is admitted, the next request is shed with rate_limit, and a one-second
// clock advance readmits.
func TestAssignRateLimit(t *testing.T) {
	var mu sync.Mutex
	base := time.Now()
	offset := time.Duration(0)
	cfg := Config{
		Workers:     1,
		AssignRPS:   1,
		AssignBurst: 1,
		now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return base.Add(offset)
		},
	}
	_, ts := testServer(t, cfg)
	modelID, res := assignFixture(t, ts)
	target := res.Objects[0].ID

	if code, body := singleLinkAssign(t, ts, modelID, target, "first"); code != http.StatusOK {
		t.Fatalf("first admitted request: %d: %s", code, body)
	}
	req := infer.RequestDoc{Objects: []infer.ObjectDoc{{ID: "limited", Links: []infer.LinkDoc{{Relation: "cites", To: target, Weight: 1}}}}}
	payload, _ := json.Marshal(req)
	hr, err := http.Post(ts.URL+"/v1/models/"+modelID+"/assign", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(hr.Body)
	hr.Body.Close()
	assertOverloaded(t, hr.StatusCode, buf.Bytes(), hr.Header)
	if out := scrapeMetrics(t, ts); !strings.Contains(out, `genclus_assign_shed_total{reason="rate_limit"} 1`) {
		t.Fatal("rate_limit shed not counted on /metrics")
	}

	mu.Lock()
	offset += time.Second
	mu.Unlock()
	if code, body := singleLinkAssign(t, ts, modelID, target, "refilled"); code != http.StatusOK {
		t.Fatalf("request after refill: %d: %s", code, body)
	}
}

// TestHealthzSnapshotConsistency hammers assign while concurrently polling
// /healthz and asserts every observed snapshot satisfies the monotone
// invariants a consistent read guarantees — independently-loaded atomics
// used to allow batched_requests > requests mid-pass.
func TestHealthzSnapshotConsistency(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	modelID, res := assignFixture(t, ts)
	target := res.Objects[0].ID

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are tolerated here (the loop may straddle
				// teardown); the test's subject is the poller below.
				req := infer.RequestDoc{Objects: []infer.ObjectDoc{{ID: fmt.Sprintf("w%dq%d", w, i), Links: []infer.LinkDoc{{Relation: "cites", To: target, Weight: 1}}}}}
				payload, _ := json.Marshal(req)
				hr, err := http.Post(ts.URL+"/v1/models/"+modelID+"/assign", "application/json", bytes.NewReader(payload))
				if err == nil {
					io.Copy(io.Discard, hr.Body)
					hr.Body.Close()
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		a := fetchHealth(t, ts).Assign
		if a.BatchedRequests > a.Requests {
			t.Errorf("torn snapshot: batched_requests %d > requests %d", a.BatchedRequests, a.Requests)
		}
		if a.Requests > a.Objects {
			t.Errorf("torn snapshot: requests %d > objects %d (every request has ≥1 object)", a.Requests, a.Objects)
		}
		if a.EnginePasses > a.Requests {
			t.Errorf("torn snapshot: engine_passes %d > requests %d", a.EnginePasses, a.Requests)
		}
	}
	close(stop)
	wg.Wait()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
