package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"genclus/client"
	"genclus/internal/trace"
)

// fetchTrace GETs one trace endpoint and decodes the traceResponse.
func fetchTrace(t *testing.T, ts *httptest.Server, path string) traceResponse {
	t.Helper()
	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+path, nil)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, code, body)
	}
	var resp traceResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// spansNamed filters a trace's spans by name, preserving order.
func spansNamed(tr traceResponse, name string) []traceSpanResponse {
	var out []traceSpanResponse
	for _, sp := range tr.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// TestJobTraceTimeline is the end-to-end fit-introspection contract: a fit
// submitted with a caller-supplied traceparent yields GET /v1/jobs/{id}/trace
// whose trace id matches the caller's, containing the queue-wait span, a
// fit.init span, per-outer-iteration spans with monotone non-decreasing
// objective values (gamma frozen so EM's ascent guarantee holds end to end),
// and the persist span.
func TestJobTraceTimeline(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	network, _ := testNetworkJSON(t, 20, 3)
	netID := uploadNetwork(t, ts, network)

	parent := trace.NewSpanContext()
	opts := quickOpts(11, 1)
	learn := false
	opts.LearnGamma = &learn
	payload, _ := json.Marshal(client.JobSpec{NetworkID: netID, K: 2, Options: opts})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", parent.Traceparent())
	hr, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", hr.StatusCode, body)
	}
	var jr client.Job
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	wantTrace := parent.TraceID.String()
	if jr.TraceID != wantTrace {
		t.Fatalf("job trace_id %q, want the caller's trace id %q", jr.TraceID, wantTrace)
	}

	waitForState(t, ts, jr.ID, client.StateDone)
	tr := fetchTrace(t, ts, "/v1/jobs/"+jr.ID+"/trace")
	if tr.TraceID != wantTrace {
		t.Fatalf("trace id %q, want caller's %q", tr.TraceID, wantTrace)
	}
	if len(tr.Spans) == 0 || tr.Spans[0].Name != "job.fit" {
		t.Fatalf("first span %+v, want the job.fit root", tr.Spans)
	}
	root := tr.Spans[0]
	if root.End == "" {
		t.Error("terminal job's root span still open")
	}
	if st, _ := root.Attrs["state"].(string); st != string(client.StateDone) {
		t.Errorf("root state attr %v, want %q", root.Attrs["state"], client.StateDone)
	}
	if len(spansNamed(tr, "job.queue_wait")) != 1 {
		t.Error("missing job.queue_wait span")
	}
	if len(spansNamed(tr, "fit.init")) != 1 {
		t.Error("missing fit.init span")
	}
	if len(spansNamed(tr, "job.persist")) != 1 {
		t.Error("missing job.persist span")
	}
	iters := spansNamed(tr, "fit.outer_iteration")
	if len(iters) == 0 {
		t.Fatal("no fit.outer_iteration spans")
	}
	prev := -1e300
	for i, sp := range iters {
		obj, ok := sp.Attrs["objective"].(float64)
		if !ok {
			t.Fatalf("iteration %d: objective attr %v (%T)", i, sp.Attrs["objective"], sp.Attrs["objective"])
		}
		// Gamma is frozen (learn_gamma=false), so each outer iteration is a
		// pure EM continuation and the objective may never decrease.
		if obj < prev-1e-9 {
			t.Errorf("objective decreased at outer iteration %d: %v -> %v", i, prev, obj)
		}
		prev = obj
		if em, ok := sp.Attrs["em_iterations"].(float64); !ok || em < 1 {
			t.Errorf("iteration %d: em_iterations attr %v", i, sp.Attrs["em_iterations"])
		}
		if sp.ParentSpanID != root.SpanID {
			t.Errorf("iteration %d parented to %q, want root %q", i, sp.ParentSpanID, root.SpanID)
		}
	}

	// The same trace resolves by id from the ring once the fit completed.
	byID := fetchTrace(t, ts, "/v1/traces/"+wantTrace)
	if byID.TraceID != wantTrace || len(spansNamed(byID, "fit.outer_iteration")) == 0 {
		t.Fatalf("/v1/traces/{id} lookup: %+v", byID)
	}
}

// TestTraceEndpoints covers the ring surface: listing newest-first with
// ?limit, 400 on malformed ids, 404 on evicted/unknown ids.
func TestTraceEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	// A couple of plain requests populate the ring with request traces.
	for i := 0; i < 3; i++ {
		if code, _ := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/healthz", nil); code != http.StatusOK {
			t.Fatal("healthz failed")
		}
	}

	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/traces?limit=2", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d: %s", code, body)
	}
	var list traceListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 2 {
		t.Fatalf("limit=2 returned %d traces", len(list.Traces))
	}
	for _, tr := range list.Traces {
		if len(tr.TraceID) != 32 || len(tr.Spans) == 0 {
			t.Fatalf("malformed trace in listing: %+v", tr)
		}
	}
	// Newest first: the listing request itself cannot be in its own response
	// (it completes after the snapshot), so the head is the last healthz.
	if name := list.Traces[0].Spans[0].Name; name != "GET /healthz" {
		t.Errorf("newest trace root %q, want the last healthz request", name)
	}

	if code, _ := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/traces?limit=x", nil); code != http.StatusBadRequest {
		t.Errorf("limit=x: status %d, want 400", code)
	}
	if code, _ := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/traces/not-hex", nil); code != http.StatusBadRequest {
		t.Errorf("malformed id: status %d, want 400", code)
	}
	code, body = doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/traces/"+strings.Repeat("ab", 16), nil)
	if code != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", code)
	}
	var er client.APIError
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.RequestID) != 32 {
		t.Errorf("404 request_id %q, want 32-hex trace id", er.RequestID)
	}
}

// TestTraceRingBound checks Config.MaxTraces caps the retained ring.
func TestTraceRingBound(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, MaxTraces: 4})
	for i := 0; i < 10; i++ {
		doReq(t, ts.Client(), http.MethodGet, ts.URL+"/healthz", nil)
	}
	_, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/traces", nil)
	var list traceListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 4 {
		t.Fatalf("ring holds %d traces, want MaxTraces=4", len(list.Traces))
	}
}

// TestRequestIDInErrorBodies pins satellite coverage beyond the 429/403
// asserts elsewhere: a plain 404 carries the request_id, and a
// caller-supplied traceparent is what comes back.
func TestRequestIDInErrorBodies(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	parent := trace.NewSpanContext()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/j-missing", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", parent.Traceparent())
	hr, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d: %s", hr.StatusCode, body)
	}
	var er client.APIError
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if want := parent.TraceID.String(); er.RequestID != want {
		t.Fatalf("request_id %q, want the caller's trace id %q", er.RequestID, want)
	}
}

// syncBuffer is an io.Writer safe for concurrent slog handlers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowRequestWarnPromotion sets the slow threshold to one nanosecond so
// every request counts as slow, and checks the request log line is promoted
// to Warn with slow=true and the trace id in the req field.
func TestSlowRequestWarnPromotion(t *testing.T) {
	var logs syncBuffer
	_, ts := testServer(t, Config{
		Workers:   1,
		TraceSlow: time.Nanosecond,
		Logger:    slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn})),
	})
	parent := trace.NewSpanContext()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("traceparent", parent.Traceparent())
	if hr, err := ts.Client().Do(req); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, hr.Body)
		hr.Body.Close()
	}

	var found bool
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] != "http request" {
			continue
		}
		found = true
		if rec["level"] != "WARN" {
			t.Errorf("slow request logged at %v, want WARN", rec["level"])
		}
		if rec["slow"] != true {
			t.Errorf("slow=%v, want true", rec["slow"])
		}
		if rec["req"] != parent.TraceID.String() {
			t.Errorf("req=%v, want trace id %s", rec["req"], parent.TraceID)
		}
	}
	if !found {
		t.Fatalf("no http-request Warn line captured:\n%s", logs.String())
	}
}

// TestSupervisorDecisionTrace checks auto-refit introspection: a mutation
// burst that trips the supervisor leaves a supervisor.decision trace in the
// ring whose refit job continues the same trace id.
func TestSupervisorDecisionTrace(t *testing.T) {
	_, ts := testServer(t, Config{
		Workers:                  1,
		SupervisorMaxPending:     1 << 20,
		SupervisorDriftThreshold: 0.5,
		SupervisorInterval:       10 * time.Millisecond,
	})
	network, _ := testNetworkJSON(t, 10, 5)
	netID := uploadNetwork(t, ts, network)
	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(3, 1)})
	waitForState(t, ts, jobID, client.StateDone)

	// A brand-new linkless object the model has never seen: maximal drift,
	// so the next evaluation tick decides to refit.
	if code, resp := mutate(t, ts, http.MethodPost, "/v1/networks/"+netID+"/objects",
		`{"objects":[{"id":"alien","type":"doc","terms":{"text":[{"t":19,"c":5}]}}]}`); code != http.StatusOK {
		t.Fatalf("mutate: %d: %+v", code, resp)
	}

	var decision traceResponse
	waitFor(t, 30*time.Second, func() bool {
		_, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/traces", nil)
		var list traceListResponse
		if err := json.Unmarshal(body, &list); err != nil {
			return false
		}
		for _, tr := range list.Traces {
			if len(tr.Spans) > 0 && tr.Spans[0].Name == "supervisor.decision" {
				if r, _ := tr.Spans[0].Attrs["reason"].(string); r != "" && r != "none" {
					decision = tr
					return true
				}
			}
		}
		return false
	})

	root := decision.Spans[0]
	if root.Attrs["network"] != netID {
		t.Errorf("decision network attr %v, want %s", root.Attrs["network"], netID)
	}
	if len(spansNamed(decision, "supervisor.drift")) != 1 {
		t.Errorf("decision trace missing supervisor.drift span: %+v", decision.Spans)
	}

	// The triggered refit's job trace continues the decision's trace id.
	waitFor(t, 30*time.Second, func() bool {
		_, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/traces", nil)
		var list traceListResponse
		if err := json.Unmarshal(body, &list); err != nil {
			return false
		}
		for _, tr := range list.Traces {
			if tr.TraceID != decision.TraceID || len(tr.Spans) == 0 {
				continue
			}
			sp := tr.Spans[0]
			if sp.Name == "job.fit" {
				if trg, _ := sp.Attrs["trigger"].(string); trg == "" {
					t.Fatalf("refit trace lacks trigger attr: %+v", sp.Attrs)
				}
				return true
			}
		}
		return false
	})
}
