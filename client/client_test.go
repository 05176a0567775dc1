package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genclus"
	"genclus/client"
	"genclus/internal/server"
)

// testNetwork builds a clearly two-clustered citation network through the
// public builder, returning it with ground truth by object ID.
func testNetwork(t *testing.T, perTopic int) (*genclus.Network, map[string]int) {
	t.Helper()
	b := genclus.NewBuilder()
	b.DeclareAttribute(genclus.AttrSpec{Name: "text", Kind: genclus.Categorical, VocabSize: 20})
	truth := make(map[string]int, 2*perTopic)
	ids := make([]string, 0, 2*perTopic)
	for topic := 0; topic < 2; topic++ {
		for i := 0; i < perTopic; i++ {
			id := fmt.Sprintf("doc%d_%04d", topic, i)
			ids = append(ids, id)
			truth[id] = topic
			b.AddObject(id, "doc")
			for w := 0; w < 8; w++ {
				b.AddTermCount(id, "text", topic*10+(i+w)%10, 1)
			}
		}
	}
	for topic := 0; topic < 2; topic++ {
		for i := 0; i < perTopic; i++ {
			from := ids[topic*perTopic+i]
			b.AddLink(from, ids[topic*perTopic+(i+1)%perTopic], "cites", 1)
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return net, truth
}

// testDaemon runs genclusd behind httptest and returns an SDK client bound
// to it. Everything in these tests talks to the daemon through the SDK
// only — no raw HTTP.
func testDaemon(t *testing.T, cfg server.Config) *client.Client {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return client.New(ts.URL, client.WithHTTPClient(ts.Client()), client.WithPollInterval(5*time.Millisecond))
}

func intp(v int) *int       { return &v }
func int64p(v int64) *int64 { return &v }

func quickOpts(seed int64) *client.JobOptions {
	return &client.JobOptions{
		OuterIters: intp(3),
		EMIters:    intp(5),
		InitSeeds:  intp(2),
		Seed:       int64p(seed),
	}
}

// TestSDKEndToEnd is the integration flow of the acceptance criteria:
// upload → submit → stream-wait → result → warm-started follow-up →
// cancel, exclusively through the SDK.
func TestSDKEndToEnd(t *testing.T) {
	c := testDaemon(t, server.Config{Workers: 1})
	ctx := t.Context()

	net, truth := testNetwork(t, 30)
	info, err := c.UploadNetwork(ctx, net)
	if err != nil {
		t.Fatal(err)
	}
	if info.Objects != 60 || info.Links != 60 {
		t.Fatalf("upload reported %d objects, %d links", info.Objects, info.Links)
	}

	// A 60-object fit can finish before its 202 is written. The blocker
	// holds the only worker (its outer iterations never end on their own),
	// so the job is still queued when the daemon answers.
	blocker, err := c.SubmitJob(ctx, client.JobSpec{NetworkID: info.ID, K: 2, Options: &client.JobOptions{
		OuterIters: intp(1_000_000), EMIters: intp(50), InitSeeds: intp(1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.SubmitJob(ctx, client.JobSpec{NetworkID: info.ID, K: 2, Options: quickOpts(7), Truth: truth})
	if err != nil {
		t.Fatal(err)
	}
	if job.State.Terminal() {
		t.Fatalf("fresh job already terminal: %s", job.State)
	}
	if _, err := c.CancelJob(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}

	res, err := c.WaitForResult(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 || len(res.Objects) != 60 {
		t.Fatalf("result shape: K=%d objects=%d", res.K, len(res.Objects))
	}
	if res.Metrics == nil || res.Metrics.NMI < 0.8 {
		t.Fatalf("metrics on a trivially separable network: %+v", res.Metrics)
	}
	if res.EMIterations == 0 {
		t.Error("result reports zero EM iterations")
	}

	status, err := c.JobStatus(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != client.StateDone {
		t.Fatalf("status after wait: %s", status.State)
	}

	// Warm-started follow-up through the SDK: K inherited, far less work,
	// identical clusters.
	warmJob, err := c.SubmitJob(ctx, client.JobSpec{NetworkID: info.ID, WarmStartFrom: job.ID})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.WaitForResult(ctx, warmJob.ID)
	if err != nil {
		t.Fatal(err)
	}
	if warm.K != 2 {
		t.Fatalf("warm job did not inherit K: %d", warm.K)
	}
	if warm.EMIterations >= res.EMIterations {
		t.Errorf("warm job EM iterations %d ≥ cold %d", warm.EMIterations, res.EMIterations)
	}
	for v := range res.Objects {
		if warm.Objects[v].Cluster != res.Objects[v].Cluster {
			t.Fatalf("object %s relabeled by warm start", res.Objects[v].ID)
		}
	}

	health, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Jobs["done"] < 2 {
		t.Fatalf("health: %+v", health)
	}

	// Remote→local rehydration: the fetched result seeds a local Refit.
	local, err := res.Model()
	if err != nil {
		t.Fatal(err)
	}
	refit, err := local.Refit(net, genclus.DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	labels := refit.HardLabels()
	for _, o := range res.Objects {
		v, ok := net.IndexOf(o.ID)
		if !ok {
			t.Fatalf("result object %q not in source network", o.ID)
		}
		if labels[v] != o.Cluster {
			t.Fatalf("local refit relabeled %s: %d → %d", o.ID, o.Cluster, labels[v])
		}
	}
}

// TestSDKStreamEvents watches a queued-then-running job through the event
// stream and requires the documented sequence.
func TestSDKStreamEvents(t *testing.T) {
	c := testDaemon(t, server.Config{Workers: 1})
	ctx := t.Context()

	net, _ := testNetwork(t, 30)
	info, err := c.UploadNetwork(ctx, net)
	if err != nil {
		t.Fatal(err)
	}
	// Blocker pins the single worker so the watched job is still queued
	// when the stream attaches.
	blocker, err := c.SubmitJob(ctx, client.JobSpec{NetworkID: info.ID, K: 2, Options: &client.JobOptions{
		OuterIters: intp(1_000_000), EMIters: intp(50), InitSeeds: intp(1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.SubmitJob(ctx, client.JobSpec{NetworkID: info.ID, K: 2, Options: quickOpts(3)})
	if err != nil {
		t.Fatal(err)
	}

	var sawProgress atomic.Bool
	var first, last client.Event
	done := make(chan error, 1)
	go func() {
		n := 0
		done <- c.StreamEvents(ctx, job.ID, func(ev client.Event) error {
			if n == 0 {
				first = ev
			}
			n++
			last = ev
			if ev.Type == "progress" {
				sawProgress.Store(true)
			}
			return nil
		})
	}()
	// Give the stream a moment to attach, then release the worker.
	time.Sleep(50 * time.Millisecond)
	if _, err := c.CancelJob(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("stream: %v", err)
	}
	if first.Job == nil {
		t.Fatal("first event is not a state event")
	}
	if !sawProgress.Load() {
		t.Error("no progress events observed")
	}
	if last.Job == nil || last.Job.State != client.StateDone {
		t.Fatalf("last event: %+v", last)
	}
}

// TestSDKCancelAndErrors covers cancellation and the typed error surface.
func TestSDKCancelAndErrors(t *testing.T) {
	c := testDaemon(t, server.Config{Workers: 1})
	ctx := t.Context()

	net, _ := testNetwork(t, 200)
	info, err := c.UploadNetwork(ctx, net)
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.SubmitJob(ctx, client.JobSpec{NetworkID: info.ID, K: 2, Options: &client.JobOptions{
		OuterIters: intp(1_000_000), EMIters: intp(50), InitSeeds: intp(1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelJob(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	_, err = c.WaitForResult(ctx, job.ID)
	var je *client.JobError
	if !errors.As(err, &je) || je.State != client.StateCancelled {
		t.Fatalf("wait on cancelled job: %v", err)
	}

	// Unknown IDs surface as typed 404s.
	if _, err := c.JobStatus(ctx, "job_missing"); !client.IsNotFound(err) {
		t.Fatalf("status of unknown job: %v", err)
	}
	if _, err := c.JobResult(ctx, "job_missing"); !client.IsNotFound(err) {
		t.Fatalf("result of unknown job: %v", err)
	}
	if err := c.StreamEvents(ctx, "job_missing", func(client.Event) error { return nil }); !client.IsNotFound(err) {
		t.Fatalf("events of unknown job: %v", err)
	}
	if _, err := c.SubmitJob(ctx, client.JobSpec{NetworkID: "net_missing", K: 2}); !client.IsNotFound(err) {
		t.Fatalf("submit against unknown network: %v", err)
	}

	// Invalid options surface the server's message.
	var ae *client.APIError
	if _, err := c.SubmitJob(ctx, client.JobSpec{NetworkID: info.ID, K: 1}); !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("submit with K=1: %v", err)
	}

	// A result fetched before the job is done is a 409, not a retry loop.
	job2, err := c.SubmitJob(ctx, client.JobSpec{NetworkID: info.ID, K: 2, Options: &client.JobOptions{
		OuterIters: intp(1_000_000), EMIters: intp(50), InitSeeds: intp(1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.JobResult(ctx, job2.ID); err == nil {
		t.Fatal("result of running job succeeded")
	} else if !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict {
		t.Fatalf("result of running job: %v", err)
	}
	if _, err := c.CancelJob(ctx, job2.ID); err != nil {
		t.Fatal(err)
	}
}

// TestSDKRetryTransient verifies the bounded retry/backoff path: a flaky
// upstream that 503s twice then succeeds is absorbed by an idempotent GET.
func TestSDKRetryTransient(t *testing.T) {
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"status":"ok","workers":1}`)
	}))
	defer flaky.Close()

	c := client.New(flaky.URL, client.WithRetries(3, time.Millisecond))
	health, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("health through flaky upstream: %v", err)
	}
	if health.Status != "ok" || calls.Load() != 3 {
		t.Fatalf("health=%+v after %d calls", health, calls.Load())
	}

	// With retries disabled the first 503 surfaces immediately.
	calls.Store(0)
	c0 := client.New(flaky.URL, client.WithRetries(0, 0))
	var ae *client.APIError
	if _, err := c0.Health(context.Background()); !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no-retry health: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("no-retry client made %d calls", calls.Load())
	}
}

// TestSDKRetryExhaustedErrorContext pins the no-more-silent-retries
// contract: when every attempt fails, the returned error names the attempt
// count and the trace id the attempts shared, every attempt carried the
// same caller-supplied traceparent, and errors.As still unwraps the typed
// APIError with the server's request_id.
func TestSDKRetryExhaustedErrorContext(t *testing.T) {
	var gotTraceparents []string
	var mu sync.Mutex
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		gotTraceparents = append(gotTraceparents, r.Header.Get("traceparent"))
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"down for repairs","request_id":"cafe"}`)
	}))
	defer down.Close()

	tp := client.NewTraceparent()
	ctx := client.WithTraceparent(context.Background(), tp)
	c := client.New(down.URL, client.WithRetries(2, time.Millisecond))
	_, err := c.Health(ctx)
	if err == nil {
		t.Fatal("health against a dead upstream succeeded")
	}
	msg := err.Error()
	if !strings.Contains(msg, "after 3 attempts") {
		t.Errorf("exhausted-retry error %q does not report the attempt count", msg)
	}
	if !strings.Contains(msg, client.TraceIDOf(tp)) {
		t.Errorf("exhausted-retry error %q does not carry trace id %s", msg, client.TraceIDOf(tp))
	}
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("wrapped error lost the APIError: %v", err)
	}
	if ae.RequestID != "cafe" {
		t.Errorf("APIError.RequestID %q, want the server-reported id", ae.RequestID)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(gotTraceparents) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(gotTraceparents))
	}
	for i, got := range gotTraceparents {
		if got != tp {
			t.Errorf("attempt %d sent traceparent %q, want the caller's %q", i, got, tp)
		}
	}
}

// TestSDKWaitPollingFallback forces the events endpoint to fail so
// WaitForResult exercises its polling fallback — both for an intermediary
// that cannot pass SSE through (502) and for a server that predates the
// /events endpoint entirely (404, which must be disambiguated from an
// unknown job).
func TestSDKWaitPollingFallback(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
	}{
		{"bad-gateway", http.StatusBadGateway},
		{"older-server", http.StatusNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := server.New(server.Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			inner := s.Handler()
			proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/healthz" && len(r.URL.Path) > 7 && r.URL.Path[len(r.URL.Path)-7:] == "/events" {
					http.Error(w, `{"error":"no such route"}`, tc.status)
					return
				}
				inner.ServeHTTP(w, r)
			}))
			t.Cleanup(func() {
				proxy.Close()
				s.Close()
			})

			c := client.New(proxy.URL, client.WithPollInterval(5*time.Millisecond), client.WithRetries(0, 0))
			ctx := t.Context()
			net, _ := testNetwork(t, 30)
			info, err := c.UploadNetwork(ctx, net)
			if err != nil {
				t.Fatal(err)
			}
			job, err := c.SubmitJob(ctx, client.JobSpec{NetworkID: info.ID, K: 2, Options: quickOpts(11)})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.WaitForResult(ctx, job.ID)
			if err != nil {
				t.Fatalf("wait with broken stream: %v", err)
			}
			if len(res.Objects) != 60 {
				t.Fatalf("result objects: %d", len(res.Objects))
			}

			// A genuinely unknown job must still surface as 404, not hang
			// in the polling loop.
			if _, err := c.WaitForResult(ctx, "job_missing"); !client.IsNotFound(err) {
				t.Fatalf("wait on unknown job: %v", err)
			}
		})
	}
}

// TestSDKEmptyBodyIsAnError checks that a 2xx answer with no body, where
// the call expects a document, is an error rather than a zero value with
// a nil error (which made WaitForResult poll a zero Job until its
// deadline).
func TestSDKEmptyBodyIsAnError(t *testing.T) {
	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer empty.Close()
	c := client.New(empty.URL, client.WithRetries(0, 0))
	ctx := context.Background()
	if job, err := c.JobStatus(ctx, "job_x"); err == nil || !strings.Contains(err.Error(), "empty body") {
		t.Fatalf("status from an empty 200: job %+v, err %v", job, err)
	}
	if res, err := c.JobResult(ctx, "job_x"); err == nil || !strings.Contains(err.Error(), "empty body") {
		t.Fatalf("result from an empty 200: result %+v, err %v", res, err)
	}
}
