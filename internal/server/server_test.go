package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"genclus/client"
	"genclus/internal/hin"
)

// testNetworkJSON builds a clearly two-clustered network (disjoint
// vocabulary blocks plus within-cluster cites links) and returns its JSON
// encoding together with the ground-truth labels by object ID.
func testNetworkJSON(t *testing.T, perTopic int, seed int64) ([]byte, map[string]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 20})
	n := 2 * perTopic
	ids := make([]string, n)
	truth := make(map[string]int, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("doc%04d", i)
		b.AddObject(ids[i], "doc")
		topic := i / perTopic
		truth[ids[i]] = topic
		for w := 0; w < 10; w++ {
			b.AddTermCount(ids[i], "text", topic*10+rng.Intn(10), 1)
		}
	}
	for i := 0; i < n; i++ {
		topic := i / perTopic
		for c := 0; c < 2; c++ {
			j := topic*perTopic + rng.Intn(perTopic)
			if j != i {
				b.AddLink(ids[i], ids[j], "cites", 1)
			}
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	data, err := net.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data, truth
}

// testServer spins up the service behind httptest and tears it down with
// the test. Structured logs are discarded unless the config brings its own
// logger — tests assert on responses and metrics, not log text.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func doReq(t *testing.T, client *http.Client, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func uploadNetwork(t *testing.T, ts *httptest.Server, network []byte) string {
	t.Helper()
	code, body := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/networks", network)
	if code != http.StatusCreated {
		t.Fatalf("upload: status %d: %s", code, body)
	}
	var resp client.NetworkInfo
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.ID
}

func submitJob(t *testing.T, ts *httptest.Server, req client.JobSpec) string {
	t.Helper()
	payload, _ := json.Marshal(req)
	code, body := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", payload)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, body)
	}
	var resp client.Job
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.ID
}

func jobStatus(t *testing.T, ts *httptest.Server, id string) client.Job {
	t.Helper()
	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("status: %d: %s", code, body)
	}
	var resp client.Job
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// waitForState polls the status endpoint until the job reaches want.
func waitForState(t *testing.T, ts *httptest.Server, id string, want client.JobState) client.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp := jobStatus(t, ts, id)
		if resp.State == want {
			return resp
		}
		if resp.State == client.StateFailed && want != client.StateFailed {
			t.Fatalf("job %s failed: %s", id, resp.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return client.Job{}
}

func fetchResult(t *testing.T, ts *httptest.Server, id string) client.Result {
	t.Helper()
	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs/"+id+"/result", nil)
	if code != http.StatusOK {
		t.Fatalf("result: %d: %s", code, body)
	}
	var resp client.Result
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// quickOpts keeps test fits fast.
func quickOpts(seed int64, parallelism int) *client.JobOptions {
	outer, em, initSeeds := 3, 5, 2
	return &client.JobOptions{
		OuterIters:  &outer,
		EMIters:     &em,
		InitSeeds:   &initSeeds,
		Seed:        &seed,
		Parallelism: &parallelism,
	}
}

func TestUploadFitPollResult(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	network, truth := testNetworkJSON(t, 30, 1)
	netID := uploadNetwork(t, ts, network)

	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(7, 1), Truth: truth})
	status := waitForState(t, ts, jobID, client.StateDone)
	if status.Progress == nil || status.Progress.Outer == 0 {
		t.Errorf("finished job reports no progress: %+v", status.Progress)
	}

	res := fetchResult(t, ts, jobID)
	if res.K != 2 || len(res.Objects) != 60 {
		t.Fatalf("result shape: K=%d objects=%d", res.K, len(res.Objects))
	}
	for _, o := range res.Objects {
		if len(o.Theta) != 2 || o.Cluster < 0 || o.Cluster > 1 {
			t.Fatalf("object %s: cluster=%d theta=%v", o.ID, o.Cluster, o.Theta)
		}
	}
	if _, ok := res.Gamma["cites"]; !ok {
		t.Errorf("gamma missing cites relation: %v", res.Gamma)
	}
	if res.Metrics == nil {
		t.Fatal("truth submitted but no metrics on the result")
	}
	if res.Metrics.NMI < 0.8 || res.Metrics.Labeled != 60 {
		t.Errorf("recovery too weak on a trivially separable network: %+v", res.Metrics)
	}

	// Same seed, second run → identical assignments (the determinism
	// guarantee the API documents).
	jobID2 := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(7, 1)})
	waitForState(t, ts, jobID2, client.StateDone)
	res2 := fetchResult(t, ts, jobID2)
	for i := range res.Objects {
		if res.Objects[i].Cluster != res2.Objects[i].Cluster {
			t.Fatalf("object %s cluster differs across identical jobs", res.Objects[i].ID)
		}
	}
}

// TestConcurrentJobsDeterministic submits jobs concurrently — same seed but
// different EM parallelism — and requires every one to complete with
// bitwise-identical assignments and relation strengths.
func TestConcurrentJobsDeterministic(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 4})
	network, _ := testNetworkJSON(t, 30, 2)
	netID := uploadNetwork(t, ts, network)

	parallelisms := []int{1, 8, 1, 8}
	ids := make([]string, len(parallelisms))
	var wg sync.WaitGroup
	for i, p := range parallelisms {
		wg.Add(1)
		go func(i, p int) {
			defer wg.Done()
			ids[i] = submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(11, p)})
		}(i, p)
	}
	wg.Wait()

	results := make([]client.Result, len(ids))
	for i, id := range ids {
		waitForState(t, ts, id, client.StateDone)
		results[i] = fetchResult(t, ts, id)
	}
	base := results[0]
	for i, res := range results[1:] {
		for v := range base.Objects {
			if res.Objects[v].Cluster != base.Objects[v].Cluster {
				t.Fatalf("job %d: cluster of %s differs from job 0", i+1, base.Objects[v].ID)
			}
			for k := range base.Objects[v].Theta {
				if res.Objects[v].Theta[k] != base.Objects[v].Theta[k] {
					t.Fatalf("job %d: θ[%s][%d] differs from job 0", i+1, base.Objects[v].ID, k)
				}
			}
		}
		for rel, g := range base.Gamma {
			if res.Gamma[rel] != g {
				t.Fatalf("job %d: γ(%s) = %v, job 0 has %v", i+1, rel, res.Gamma[rel], g)
			}
		}
	}
}

// TestCancelMidFit cancels a running job and verifies both the API
// transition and that the fit's goroutines actually exit (no leak).
func TestCancelMidFit(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	network, _ := testNetworkJSON(t, 400, 3)
	netID := uploadNetwork(t, ts, network)

	ts.Client().CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	outer, em, par, initSeeds := 1_000_000, 50, 2, 1
	var seed int64 = 5
	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: &client.JobOptions{
		OuterIters: &outer, EMIters: &em, Parallelism: &par, InitSeeds: &initSeeds, Seed: &seed,
	}})
	waitForState(t, ts, jobID, client.StateRunning)

	code, _ := doReq(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/jobs/"+jobID, nil)
	if code != http.StatusOK {
		t.Fatalf("cancel: status %d", code)
	}
	status := waitForState(t, ts, jobID, client.StateCancelled)
	if status.Error == "" {
		t.Error("cancelled job carries no reason")
	}

	// A cancelled job must not hold a result.
	code, _ = doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs/"+jobID+"/result", nil)
	if code != http.StatusConflict {
		t.Fatalf("result of cancelled job: status %d, want 409", code)
	}

	// The fit goroutine and its EM workers must exit once the cancel
	// propagates; poll because the fit only notices between iterations.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ts.Client().CloseIdleConnections()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after cancel: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 8})
	network, _ := testNetworkJSON(t, 400, 4)
	netID := uploadNetwork(t, ts, network)

	outer, em, initSeeds := 1_000_000, 50, 1
	slow := &client.JobOptions{OuterIters: &outer, EMIters: &em, InitSeeds: &initSeeds}
	blocker := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: slow})
	waitForState(t, ts, blocker, client.StateRunning)

	queued := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: slow})
	if code, _ := doReq(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/jobs/"+queued, nil); code != http.StatusOK {
		t.Fatalf("cancel queued: status %d", code)
	}
	waitForState(t, ts, queued, client.StateCancelled)

	if code, _ := doReq(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/jobs/"+blocker, nil); code != http.StatusOK {
		t.Fatal("cancel blocker failed")
	}
	waitForState(t, ts, blocker, client.StateCancelled)
}

func TestMalformedPayloadsAre4xx(t *testing.T) {
	_, ts := testServer(t, Config{
		Workers:      1,
		MaxBodyBytes: 64 << 10,
		Limits:       hin.Limits{MaxObjects: 1000, MaxLinks: 5000, MaxAttributes: 8, MaxVocab: 64, MaxObservations: 10000},
	})
	network, _ := testNetworkJSON(t, 5, 6)
	netID := uploadNetwork(t, ts, network)

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"network: invalid JSON", "POST", "/v1/networks", `{not json`, 400},
		{"network: unknown attribute kind", "POST", "/v1/networks",
			`{"attributes":[{"name":"a","kind":"ordinal","vocab":4}],"objects":[{"id":"x","type":"t"}]}`, 400},
		{"network: term outside vocabulary", "POST", "/v1/networks",
			`{"attributes":[{"name":"a","kind":"categorical","vocab":4}],"objects":[{"id":"x","type":"t","terms":{"a":[{"t":99,"c":1}]}}]}`, 400},
		{"network: link to unknown object", "POST", "/v1/networks",
			`{"objects":[{"id":"x","type":"t"}],"links":[{"from":"x","to":"ghost","rel":"r","w":1}]}`, 400},
		{"network: vocabulary over limit", "POST", "/v1/networks",
			`{"attributes":[{"name":"a","kind":"categorical","vocab":100000}],"objects":[{"id":"x","type":"t"}]}`, 413},
		{"network: body too large", "POST", "/v1/networks", strings.Repeat("x", 65<<10), 413},
		{"job: invalid JSON", "POST", "/v1/jobs", `]`, 400},
		{"job: unknown network", "POST", "/v1/jobs", `{"network_id":"net_missing","k":2}`, 404},
		{"job: k too small", "POST", "/v1/jobs", fmt.Sprintf(`{"network_id":%q,"k":1}`, netID), 400},
		{"job: k memory bomb", "POST", "/v1/jobs", fmt.Sprintf(`{"network_id":%q,"k":1000000000}`, netID), 400},
		{"job: unbounded iterations", "POST", "/v1/jobs",
			fmt.Sprintf(`{"network_id":%q,"k":2,"options":{"outer_iters":2000000000}}`, netID), 400},
		{"job: unbounded seed steps", "POST", "/v1/jobs",
			fmt.Sprintf(`{"network_id":%q,"k":2,"options":{"init_seed_steps":2000000000}}`, netID), 400},
		{"job: unbounded newton steps", "POST", "/v1/jobs",
			fmt.Sprintf(`{"network_id":%q,"k":2,"options":{"newton_iters":2000000000,"em_iters":1,"outer_iters":1}}`, netID), 400},
		{"job: unknown attribute", "POST", "/v1/jobs",
			fmt.Sprintf(`{"network_id":%q,"k":2,"options":{"attributes":["nope"]}}`, netID), 400},
		{"job: truth on unknown object", "POST", "/v1/jobs",
			fmt.Sprintf(`{"network_id":%q,"k":2,"truth":{"ghost":0}}`, netID), 400},
		{"status: unknown job", "GET", "/v1/jobs/job_missing", "", 404},
		{"result: unknown job", "GET", "/v1/jobs/job_missing/result", "", 404},
		{"cancel: unknown job", "DELETE", "/v1/jobs/job_missing", "", 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := doReq(t, ts.Client(), tc.method, ts.URL+tc.path, []byte(tc.body))
			if code != tc.want {
				t.Fatalf("status %d, want %d: %s", code, tc.want, body)
			}
			if code >= 500 {
				t.Fatalf("5xx on malformed input: %d", code)
			}
		})
	}
}

// TestErrorBodyBytes pins the error document's exact encoding: a
// client.APIError written as {"error","code","request_id"}, in that order,
// with code and request_id omitted when empty.
func TestErrorBodyBytes(t *testing.T) {
	_, ts := testServer(t, Config{})
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/job_x", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"error":"unknown job \"job_x\"","request_id":"0123456789abcdef0123456789abcdef"}` + "\n"; string(body) != want {
		t.Errorf("404 body %q, want %q", body, want)
	}

	rec := httptest.NewRecorder()
	writeErrorCode(rec, http.StatusTooManyRequests, client.CodeOverloaded, "shed: %s", "queue full")
	if want := `{"error":"shed: queue full","code":"overloaded"}` + "\n"; rec.Body.String() != want {
		t.Errorf("429 body %q, want %q", rec.Body.String(), want)
	}
}

func TestQueueBackpressure(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})
	network, _ := testNetworkJSON(t, 400, 8)
	netID := uploadNetwork(t, ts, network)

	outer, em, initSeeds := 1_000_000, 50, 1
	slow := &client.JobOptions{OuterIters: &outer, EMIters: &em, InitSeeds: &initSeeds}
	running := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: slow})
	waitForState(t, ts, running, client.StateRunning)
	queued := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: slow})

	payload, _ := json.Marshal(client.JobSpec{NetworkID: netID, K: 2, Options: slow})
	code, body := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", payload)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("third submission: status %d, want 503: %s", code, body)
	}

	for _, id := range []string{running, queued} {
		doReq(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		waitForState(t, ts, id, client.StateCancelled)
	}
}

func TestResultBeforeDoneIs409(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	network, _ := testNetworkJSON(t, 400, 9)
	netID := uploadNetwork(t, ts, network)
	outer, em, initSeeds := 1_000_000, 50, 1
	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2,
		Options: &client.JobOptions{OuterIters: &outer, EMIters: &em, InitSeeds: &initSeeds}})
	code, _ := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs/"+jobID+"/result", nil)
	if code != http.StatusConflict {
		t.Fatalf("result of unfinished job: status %d, want 409", code)
	}
	doReq(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/jobs/"+jobID, nil)
	waitForState(t, ts, jobID, client.StateCancelled)
}

// fakeClock drives TTL eviction without real sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestTTLEviction(t *testing.T) {
	clock := &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	s, ts := testServer(t, Config{Workers: 1, JobTTL: time.Minute, now: clock.Now})
	network, _ := testNetworkJSON(t, 10, 10)
	netID := uploadNetwork(t, ts, network)
	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(1, 1)})
	waitForState(t, ts, jobID, client.StateDone)

	// Within the TTL nothing is evicted.
	s.store.sweep()
	if code, _ := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs/"+jobID, nil); code != http.StatusOK {
		t.Fatalf("job evicted before TTL: %d", code)
	}

	clock.Advance(2 * time.Minute)
	s.store.sweep()
	if code, _ := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs/"+jobID, nil); code != http.StatusNotFound {
		t.Fatalf("finished job survived the TTL sweep: %d", code)
	}
	payload, _ := json.Marshal(client.JobSpec{NetworkID: netID, K: 2})
	if code, _ := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", payload); code != http.StatusNotFound {
		t.Fatalf("idle network survived the TTL sweep: %d", code)
	}
}

// TestTTLPinsNetworkWithQueuedJob: a network must not be evicted while a
// queued or running job still needs it.
func TestTTLPinsNetworkWithQueuedJob(t *testing.T) {
	clock := &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	s, ts := testServer(t, Config{Workers: 1, JobTTL: time.Minute, now: clock.Now})
	network, _ := testNetworkJSON(t, 400, 12)
	netID := uploadNetwork(t, ts, network)

	outer, em, initSeeds := 1_000_000, 50, 1
	slow := &client.JobOptions{OuterIters: &outer, EMIters: &em, InitSeeds: &initSeeds}
	running := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: slow})
	waitForState(t, ts, running, client.StateRunning)
	queued := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: slow})

	clock.Advance(10 * time.Minute)
	s.store.sweep()
	if _, _, ok := s.store.networkState(netID); !ok {
		t.Fatal("network evicted while jobs depend on it")
	}

	for _, id := range []string{running, queued} {
		doReq(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		waitForState(t, ts, id, client.StateCancelled)
	}
}

// TestCloseFailsOverQueuedJobs: shutting the server down with jobs still
// queued must move them to a terminal state (and close their done
// channels) rather than stranding them as "queued" forever.
func TestCloseFailsOverQueuedJobs(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	network, _ := testNetworkJSON(t, 400, 13)
	netID := uploadNetwork(t, ts, network)
	outer, em, initSeeds := 1_000_000, 50, 1
	slow := &client.JobOptions{OuterIters: &outer, EMIters: &em, InitSeeds: &initSeeds}
	running := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: slow})
	waitForState(t, ts, running, client.StateRunning)
	queued := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: slow})

	s.Close()

	for _, id := range []string{running, queued} {
		j, ok := s.store.job(id)
		if !ok {
			t.Fatalf("job %s missing after close", id)
		}
		select {
		case <-j.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("job %s (state %s) never terminal after Close", id, j.snapshot().state)
		}
		if state := j.snapshot().state; state != client.StateCancelled {
			t.Fatalf("job %s state after Close = %s, want cancelled", id, state)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 3})
	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	var resp client.Health
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Workers != 3 {
		t.Fatalf("healthz payload: %+v", resp)
	}
}

// readSSE consumes the events stream of a job until the final "state"
// event (terminal) or the stream ends, returning the event names in order
// and the last state payload seen.
func readSSE(t *testing.T, body io.Reader) (names []string, lastState client.Job, progressSeen int) {
	t.Helper()
	sc := bufio.NewScanner(body)
	var evType, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event:"):
			evType = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "":
			if evType == "" {
				continue
			}
			names = append(names, evType)
			switch evType {
			case "state":
				if err := json.Unmarshal([]byte(data), &lastState); err != nil {
					t.Fatalf("bad state event %q: %v", data, err)
				}
			case "progress":
				progressSeen++
			}
			evType, data = "", ""
		}
	}
	return names, lastState, progressSeen
}

// TestJobEventsStream subscribes to a job's SSE stream and requires the
// documented shape: an initial state event, at least one progress event,
// and a final terminal state event after which the stream closes.
func TestJobEventsStream(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	network, _ := testNetworkJSON(t, 30, 21)
	netID := uploadNetwork(t, ts, network)

	// Park a blocker on the single worker so the real job stays queued
	// until the stream is attached — that guarantees the subscription
	// observes live progress instead of racing a fast fit.
	blockOuter, blockEM, one := 1_000_000, 50, 1
	blocker := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: &client.JobOptions{
		OuterIters: &blockOuter, EMIters: &blockEM, InitSeeds: &one,
	}})
	waitForState(t, ts, blocker, client.StateRunning)

	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(3, 1)})
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + jobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	doReq(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/jobs/"+blocker, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	names, last, progress := readSSE(t, resp.Body)
	if len(names) < 2 || names[0] != "state" || names[len(names)-1] != "state" {
		t.Fatalf("event sequence %v, want state ... state", names)
	}
	if progress == 0 {
		t.Error("no progress events on a multi-iteration fit")
	}
	if last.State != client.StateDone {
		t.Fatalf("final state event reports %q, want done", last.State)
	}
	if last.Progress == nil || last.Progress.Outer == 0 {
		t.Errorf("final state carries no progress: %+v", last.Progress)
	}

	// Subscribing to an already-finished job yields the terminal state
	// immediately and closes.
	resp2, err := ts.Client().Get(ts.URL + "/v1/jobs/" + jobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	names2, last2, _ := readSSE(t, resp2.Body)
	if len(names2) == 0 || last2.State != client.StateDone {
		t.Fatalf("finished-job stream: events %v, state %q", names2, last2.State)
	}

	if code, _ := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs/job_missing/events", nil); code != http.StatusNotFound {
		t.Fatalf("events of unknown job: status %d, want 404", code)
	}
}

// TestJobEventsClientDisconnect verifies the SSE handler exits when the
// client walks away mid-fit — no goroutine may outlive the subscription
// (same leak-check pattern as TestCancelMidFit).
func TestJobEventsClientDisconnect(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	network, _ := testNetworkJSON(t, 400, 22)
	netID := uploadNetwork(t, ts, network)

	ts.Client().CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	outer, em, par, initSeeds := 1_000_000, 50, 1, 1
	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: &client.JobOptions{
		OuterIters: &outer, EMIters: &em, Parallelism: &par, InitSeeds: &initSeeds,
	}})
	waitForState(t, ts, jobID, client.StateRunning)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+jobID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first event so the stream is demonstrably live, then hang up.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("read first byte of stream: %v", err)
	}
	cancel()
	resp.Body.Close()

	// Cancel the job; afterwards every goroutine the stream and fit spawned
	// must exit even though the subscriber vanished first.
	doReq(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/jobs/"+jobID, nil)
	waitForState(t, ts, jobID, client.StateCancelled)

	deadline := time.Now().Add(30 * time.Second)
	for {
		ts.Client().CloseIdleConnections()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			stack := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after stream disconnect: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), stack[:runtime.Stack(stack, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWarmStartFromJob chains two jobs: the second warm-starts from the
// first and must finish with identical clusters in far fewer EM iterations.
func TestWarmStartFromJob(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	network, _ := testNetworkJSON(t, 30, 23)
	netID := uploadNetwork(t, ts, network)

	outer, em := 20, 30
	emTol, outerTol := 1e-9, 1e-9
	var seed int64 = 7
	coldID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: &client.JobOptions{
		OuterIters: &outer, EMIters: &em, EMTol: &emTol, OuterTol: &outerTol, Seed: &seed,
	}})
	waitForState(t, ts, coldID, client.StateDone)
	cold := fetchResult(t, ts, coldID)

	warmID := submitJob(t, ts, client.JobSpec{NetworkID: netID, WarmStartFrom: coldID})
	waitForState(t, ts, warmID, client.StateDone)
	warm := fetchResult(t, ts, warmID)

	if warm.K != cold.K {
		t.Fatalf("warm job K=%d, cold K=%d", warm.K, cold.K)
	}
	if warm.EMIterations > 2 {
		t.Errorf("warm-started job ran %d EM iterations, want ≤ 2 (cold ran %d)", warm.EMIterations, cold.EMIterations)
	}
	for v := range cold.Objects {
		if warm.Objects[v].Cluster != cold.Objects[v].Cluster {
			t.Fatalf("object %s relabeled by warm start", cold.Objects[v].ID)
		}
	}

	// Error surface: unknown source job, unfinished source job, K mismatch.
	payload, _ := json.Marshal(client.JobSpec{NetworkID: netID, WarmStartFrom: "job_missing"})
	if code, _ := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", payload); code != http.StatusNotFound {
		t.Fatalf("warm start from unknown job: status %d, want 404", code)
	}
	payload, _ = json.Marshal(client.JobSpec{NetworkID: netID, K: 3, WarmStartFrom: coldID})
	if code, _ := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", payload); code != http.StatusBadRequest {
		t.Fatalf("warm start with mismatched K: status %d, want 400", code)
	}

	slow := 1_000_000
	one := 1
	runningID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: &client.JobOptions{
		OuterIters: &slow, EMIters: &em, InitSeeds: &one,
	}})
	waitForState(t, ts, runningID, client.StateRunning)
	payload, _ = json.Marshal(client.JobSpec{NetworkID: netID, WarmStartFrom: runningID})
	if code, _ := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", payload); code != http.StatusConflict {
		t.Fatalf("warm start from running job: status %d, want 409", code)
	}
	doReq(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/jobs/"+runningID, nil)
	waitForState(t, ts, runningID, client.StateCancelled)
}

// TestDrainStreamsEndsLiveStream: a graceful shutdown must not be held
// open by an attached events consumer — DrainStreams (wired to
// http.Server.RegisterOnShutdown by cmd/genclusd) ends the stream even
// while the job is still running.
func TestDrainStreamsEndsLiveStream(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	network, _ := testNetworkJSON(t, 400, 24)
	netID := uploadNetwork(t, ts, network)

	outer, em, one := 1_000_000, 50, 1
	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: &client.JobOptions{
		OuterIters: &outer, EMIters: &em, InitSeeds: &one,
	}})
	waitForState(t, ts, jobID, client.StateRunning)

	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + jobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("stream not live: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, resp.Body)
		done <- err
	}()
	s.DrainStreams()
	select {
	case <-done: // EOF (or benign close error): the stream ended
	case <-time.After(10 * time.Second):
		t.Fatal("stream still open 10s after DrainStreams")
	}

	doReq(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/jobs/"+jobID, nil)
	waitForState(t, ts, jobID, client.StateCancelled)
}
