package replica

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"genclus/client"
	"genclus/internal/snapshot"
	"genclus/internal/trace"
)

// fakePrimary is a scriptable /v1/models + /v1/models/{id}/export server.
// Models maps id → snapshot bytes; the listing advertises each model's real
// DataDigest unless corruptExport makes the export body differ from it.
type fakePrimary struct {
	mu            sync.Mutex
	models        map[string][]byte
	corruptExport bool // serve flipped bytes so the digest check fails
	failStatus    int  // non-zero: answer exports with this status
	failRemaining int  // how many export requests failStatus applies to (-1 = all)
	listStatus    int  // non-zero: answer listings with this status
	exportHits    map[string]int
	traceparents  []string // the traceparent header of every request, in order

	srv *httptest.Server
}

func newFakePrimary(t *testing.T) *fakePrimary {
	t.Helper()
	p := &fakePrimary{
		models:     map[string][]byte{},
		exportHits: map[string]int{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/models", p.handleList)
	mux.HandleFunc("GET /v1/models/{id}/export", p.handleExport)
	p.srv = httptest.NewServer(mux)
	t.Cleanup(p.srv.Close)
	return p
}

func (p *fakePrimary) handleList(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.traceparents = append(p.traceparents, r.Header.Get("traceparent"))
	if p.listStatus != 0 {
		w.WriteHeader(p.listStatus)
		return
	}
	var rows []client.ModelInfo
	for id, data := range p.models {
		rows = append(rows, client.ModelInfo{ID: id, Digest: snapshot.DataDigest(data)})
	}
	// Sorted by id, so a pass exports models in a known order.
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	json.NewEncoder(w).Encode(map[string]any{"models": rows})
}

func (p *fakePrimary) handleExport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	p.mu.Lock()
	defer p.mu.Unlock()
	p.exportHits[id]++
	p.traceparents = append(p.traceparents, r.Header.Get("traceparent"))
	if p.failStatus != 0 && p.failRemaining != 0 {
		if p.failRemaining > 0 {
			p.failRemaining--
		}
		w.WriteHeader(p.failStatus)
		return
	}
	data, ok := p.models[id]
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		return
	}
	if p.corruptExport {
		data = append([]byte{}, data...)
		data[0] ^= 0xff
	}
	w.Write(data)
}

func (p *fakePrimary) set(id string, data []byte) {
	p.mu.Lock()
	p.models[id] = data
	p.mu.Unlock()
}

func (p *fakePrimary) drop(id string) {
	p.mu.Lock()
	delete(p.models, id)
	p.mu.Unlock()
}

func (p *fakePrimary) hits(id string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exportHits[id]
}

// fakeRegistry is a map-backed Registry recording every mutation.
type fakeRegistry struct {
	mu          sync.Mutex
	data        map[string][]byte
	failInstall error // non-nil: Install returns it
	installs    int
	removes     int
}

func newFakeRegistry() *fakeRegistry {
	return &fakeRegistry{data: map[string][]byte{}}
}

func (r *fakeRegistry) LocalModels() map[string]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]string, len(r.data))
	for id, data := range r.data {
		out[id] = snapshot.DataDigest(data)
	}
	return out
}

func (r *fakeRegistry) Install(id string, data []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.failInstall != nil {
		return r.failInstall
	}
	r.data[id] = data
	r.installs++
	return nil
}

func (r *fakeRegistry) Remove(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.data, id)
	r.removes++
	return nil
}

func (r *fakeRegistry) get(id string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	data, ok := r.data[id]
	return data, ok
}

func (r *fakeRegistry) size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.data)
}

func testSyncer(t *testing.T, primary string, reg Registry) *Syncer {
	t.Helper()
	s, err := New(Config{
		Primary:  primary,
		Registry: reg,
		Logger:   slog.New(slog.NewTextHandler(testWriter{t}, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Stop)
	return s
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{Registry: newFakeRegistry()}); err == nil {
		t.Fatal("New without Primary: want error")
	}
	if _, err := New(Config{Primary: "http://x"}); err == nil {
		t.Fatal("New without Registry: want error")
	}
}

func TestSyncInstallAndDelete(t *testing.T) {
	p := newFakePrimary(t)
	p.set("m-a", []byte("snapshot-bytes-a"))
	p.set("m-b", []byte("snapshot-bytes-b"))
	reg := newFakeRegistry()
	s := testSyncer(t, p.srv.URL, reg)

	if err := s.SyncOnce(context.Background()); err != nil {
		t.Fatalf("first pass: %v", err)
	}
	if got, ok := reg.get("m-a"); !ok || string(got) != "snapshot-bytes-a" {
		t.Fatalf("m-a after sync: %q, %v", got, ok)
	}
	if _, ok := reg.get("m-b"); !ok {
		t.Fatal("m-b missing after sync")
	}
	st := s.Status()
	if st.Syncs != 1 || st.SyncErrors != 0 || st.ModelsSynced != 2 || st.ModelsDeleted != 0 {
		t.Fatalf("status after first pass: %+v", st)
	}

	// The primary drops one model and gains another; the next pass
	// reconciles both directions.
	p.drop("m-b")
	p.set("m-c", []byte("snapshot-bytes-c"))
	if err := s.SyncOnce(context.Background()); err != nil {
		t.Fatalf("second pass: %v", err)
	}
	if _, ok := reg.get("m-b"); ok {
		t.Fatal("m-b still present after primary dropped it")
	}
	if _, ok := reg.get("m-c"); !ok {
		t.Fatal("m-c missing after sync")
	}
	st = s.Status()
	if st.Syncs != 2 || st.ModelsSynced != 3 || st.ModelsDeleted != 1 {
		t.Fatalf("status after second pass: %+v", st)
	}
}

func TestSyncSkipsUnchangedDigests(t *testing.T) {
	p := newFakePrimary(t)
	p.set("m-a", []byte("stable-bytes"))
	reg := newFakeRegistry()
	s := testSyncer(t, p.srv.URL, reg)

	for i := 0; i < 3; i++ {
		if err := s.SyncOnce(context.Background()); err != nil {
			t.Fatalf("pass %d: %v", i, err)
		}
	}
	if hits := p.hits("m-a"); hits != 1 {
		t.Fatalf("export hits for unchanged model: %d, want 1", hits)
	}

	// A changed digest re-downloads exactly once more.
	p.set("m-a", []byte("updated-bytes"))
	if err := s.SyncOnce(context.Background()); err != nil {
		t.Fatalf("pass after update: %v", err)
	}
	if got, _ := reg.get("m-a"); string(got) != "updated-bytes" {
		t.Fatalf("m-a after update: %q", got)
	}
	if hits := p.hits("m-a"); hits != 2 {
		t.Fatalf("export hits after update: %d, want 2", hits)
	}
}

func TestSyncRejectsDigestMismatch(t *testing.T) {
	p := newFakePrimary(t)
	p.set("m-a", []byte("true-bytes"))
	reg := newFakeRegistry()
	s := testSyncer(t, p.srv.URL, reg)

	p.mu.Lock()
	p.corruptExport = true
	p.mu.Unlock()
	err := s.SyncOnce(context.Background())
	if err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("corrupted export: err = %v, want digest mismatch", err)
	}
	if _, ok := reg.get("m-a"); ok {
		t.Fatal("corrupted snapshot was installed")
	}
	st := s.Status()
	if st.SyncErrors != 1 || st.ConsecutiveFailures != 1 || st.LastError == "" {
		t.Fatalf("status after mismatch: %+v", st)
	}

	// Once the body is honest again the retry succeeds and the failure
	// streak resets.
	p.mu.Lock()
	p.corruptExport = false
	p.mu.Unlock()
	if err := s.SyncOnce(context.Background()); err != nil {
		t.Fatalf("retry pass: %v", err)
	}
	if got, _ := reg.get("m-a"); string(got) != "true-bytes" {
		t.Fatalf("m-a after retry: %q", got)
	}
	st = s.Status()
	if st.ConsecutiveFailures != 0 || st.LastError != "" || st.Syncs != 1 {
		t.Fatalf("status after recovery: %+v", st)
	}
}

func TestSyncBackpressureAbortsPass(t *testing.T) {
	p := newFakePrimary(t)
	p.set("m-a", []byte("bytes-a"))
	p.set("m-b", []byte("bytes-b"))
	reg := newFakeRegistry()
	s := testSyncer(t, p.srv.URL, reg)

	// Every export answers 503: the pass must abort on the first one and
	// install nothing — a sick primary gets backoff, not a hammering.
	p.mu.Lock()
	p.failStatus = http.StatusServiceUnavailable
	p.failRemaining = -1
	p.mu.Unlock()
	err := s.SyncOnce(context.Background())
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("503 exports: err = %v, want 503", err)
	}
	if reg.size() != 0 {
		t.Fatalf("partial install under backpressure: %d models", reg.size())
	}
	totalHits := p.hits("m-a") + p.hits("m-b")
	if totalHits != 1 {
		t.Fatalf("export attempts under backpressure: %d, want 1 (abort after first)", totalHits)
	}

	// A second failing pass deepens the streak, and with it the backoff.
	if err := s.SyncOnce(context.Background()); err == nil {
		t.Fatal("second 503 pass: want error")
	}
	if st := s.Status(); st.ConsecutiveFailures != 2 {
		t.Fatalf("ConsecutiveFailures = %d, want 2", st.ConsecutiveFailures)
	}
	if d1, d2 := backoff(s.cfg.Interval, 1, maxBackoff), s.nextDelay(); d2 <= d1 {
		t.Fatalf("backoff did not grow: %v then %v", d1, d2)
	}

	// Recovery installs both models in one pass.
	p.mu.Lock()
	p.failStatus = 0
	p.mu.Unlock()
	if err := s.SyncOnce(context.Background()); err != nil {
		t.Fatalf("recovery pass: %v", err)
	}
	if reg.size() != 2 {
		t.Fatalf("models after recovery: %d, want 2", reg.size())
	}
}

func TestSync429AbortsPass(t *testing.T) {
	p := newFakePrimary(t)
	p.set("m-a", []byte("bytes-a"))
	reg := newFakeRegistry()
	s := testSyncer(t, p.srv.URL, reg)

	p.mu.Lock()
	p.listStatus = http.StatusTooManyRequests
	p.mu.Unlock()
	err := s.SyncOnce(context.Background())
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("429 listing: err = %v, want 429", err)
	}
	if reg.size() != 0 || p.hits("m-a") != 0 {
		t.Fatal("pass proceeded past a 429 listing")
	}
}

func TestSyncExportNotFoundSkipsModel(t *testing.T) {
	p := newFakePrimary(t)
	p.set("m-a", []byte("bytes-a"))
	p.set("m-b", []byte("bytes-b"))
	reg := newFakeRegistry()
	s := testSyncer(t, p.srv.URL, reg)

	// m-a vanishes between the listing and its export (404): the pass skips
	// it without failing — the next listing simply won't include it.
	p.srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/models/m-a/export" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/models", p.handleList)
		mux.HandleFunc("GET /v1/models/{id}/export", p.handleExport)
		mux.ServeHTTP(w, r)
	})
	if err := s.SyncOnce(context.Background()); err != nil {
		t.Fatalf("pass with vanished model: %v", err)
	}
	if _, ok := reg.get("m-a"); ok {
		t.Fatal("vanished model installed")
	}
	if _, ok := reg.get("m-b"); !ok {
		t.Fatal("m-b missing: 404 on a sibling aborted the pass")
	}
}

// TestSyncExportFailureKeepsModelErrors fails the second export of a
// pass after the first one's digest mismatched: the pass's error must name
// both, not just the export that aborted it.
func TestSyncExportFailureKeepsModelErrors(t *testing.T) {
	p := newFakePrimary(t)
	p.set("m-a", []byte("bytes-a"))
	p.set("m-b", []byte("bytes-b"))
	p.corruptExport = true
	mux := p.srv.Config.Handler
	p.srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/models/m-b/export" {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, r)
	})
	reg := newFakeRegistry()
	s := testSyncer(t, p.srv.URL, reg)

	err := s.SyncOnce(context.Background())
	if err == nil || !strings.Contains(err.Error(), "m-a") || !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("err = %v, want m-a's digest mismatch", err)
	}
	if !strings.Contains(err.Error(), "m-b") || !strings.Contains(err.Error(), "503") {
		t.Fatalf("err = %v, want m-b's 503", err)
	}
	if st := s.Status(); st.LastError != err.Error() || reg.size() != 0 {
		t.Fatalf("status %+v, %d models installed", st, reg.size())
	}
}

// TestSyncRefusesOversizedExport serves a listing under MaxSnapshotBytes
// and an export over it: the pass fails and installs nothing.
func TestSyncRefusesOversizedExport(t *testing.T) {
	p := newFakePrimary(t)
	p.set("m-big", []byte(strings.Repeat("x", 8192)))
	reg := newFakeRegistry()
	s, err := New(Config{
		Primary:          p.srv.URL,
		Registry:         reg,
		MaxSnapshotBytes: 2048,
		Logger:           slog.New(slog.NewTextHandler(testWriter{t}, nil)),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// The error names the model, so it is the export that failed, not the
	// listing.
	if err := s.SyncOnce(context.Background()); err == nil || !strings.Contains(err.Error(), "m-big") {
		t.Fatalf("oversized export: err = %v, want m-big's export refused", err)
	}
	if _, ok := reg.get("m-big"); ok {
		t.Fatal("oversized export was installed")
	}
	if st := s.Status(); st.SyncErrors != 1 {
		t.Fatalf("SyncErrors = %d, want 1", st.SyncErrors)
	}
}

// TestSyncPropagatesPassTrace checks that every request of one pass carries
// a traceparent in the trace the pass recorded.
func TestSyncPropagatesPassTrace(t *testing.T) {
	p := newFakePrimary(t)
	p.set("m-a", []byte("bytes-a"))
	p.set("m-b", []byte("bytes-b"))
	rec := trace.NewRecorder(4)
	s, err := New(Config{
		Primary:  p.srv.URL,
		Registry: newFakeRegistry(),
		Tracer:   rec,
		Logger:   slog.New(slog.NewTextHandler(testWriter{t}, nil)),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.SyncOnce(context.Background()); err != nil {
		t.Fatalf("pass: %v", err)
	}
	traces := rec.Recent()
	if len(traces) != 1 || traces[0].Spans[0].Name != "replica.sync_pass" {
		t.Fatalf("recorded traces: %+v, want one replica.sync_pass", traces)
	}
	want := traces[0].TraceID
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.traceparents) != 3 {
		t.Fatalf("requests: %d, want a listing and two exports", len(p.traceparents))
	}
	for i, tp := range p.traceparents {
		if sc, ok := trace.Parse(tp); !ok || sc.TraceID != want {
			t.Errorf("request %d traceparent %q, want trace id %s", i, tp, want)
		}
	}
}

func TestSyncUnreachablePrimaryKeepsLocalModels(t *testing.T) {
	// Reserve a port, then close it so dials are refused deterministically.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()

	reg := newFakeRegistry()
	reg.Install("m-a", []byte("precious-local-state"))
	s := testSyncer(t, dead, reg)

	if err := s.SyncOnce(context.Background()); err == nil {
		t.Fatal("unreachable primary: want error")
	}
	// The unreachable primary must never look like "primary has zero
	// models": local state survives.
	if _, ok := reg.get("m-a"); !ok {
		t.Fatal("local model deleted while primary was unreachable")
	}
	if st := s.Status(); st.SyncErrors != 1 || st.ModelsDeleted != 0 {
		t.Fatalf("status after unreachable pass: %+v", st)
	}
}

func TestSyncInstallFailureSkipsModelButContinues(t *testing.T) {
	p := newFakePrimary(t)
	p.set("m-a", []byte("bytes-a"))
	reg := newFakeRegistry()
	reg.failInstall = fmt.Errorf("disk full")
	s := testSyncer(t, p.srv.URL, reg)

	err := s.SyncOnce(context.Background())
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("install failure: err = %v", err)
	}
	reg.mu.Lock()
	reg.failInstall = nil
	reg.mu.Unlock()
	if err := s.SyncOnce(context.Background()); err != nil {
		t.Fatalf("pass after install recovers: %v", err)
	}
	if _, ok := reg.get("m-a"); !ok {
		t.Fatal("m-a missing after recovery")
	}
}

func TestBackoffSchedule(t *testing.T) {
	base, max := 2*time.Second, 30*time.Second
	for _, tc := range []struct {
		failures int
		want     time.Duration
	}{
		{0, 2 * time.Second},
		{1, 4 * time.Second},
		{2, 8 * time.Second},
		{3, 16 * time.Second},
		{4, 30 * time.Second}, // 32s capped
		{10, 30 * time.Second},
	} {
		if got := backoff(base, tc.failures, max); got != tc.want {
			t.Errorf("backoff(%v, %d, %v) = %v, want %v", base, tc.failures, max, got, tc.want)
		}
	}
}

func TestStartStop(t *testing.T) {
	p := newFakePrimary(t)
	p.set("m-a", []byte("bytes-a"))
	reg := newFakeRegistry()
	s, err := New(Config{
		Primary:  p.srv.URL,
		Registry: reg,
		Interval: 10 * time.Millisecond,
		Logger:   slog.New(slog.NewTextHandler(testWriter{t}, nil)),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s.Start()
	s.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := reg.get("m-a"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("loop never synced m-a")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Stop()
	s.Stop() // idempotent
}

func TestStopWithoutStart(t *testing.T) {
	s, err := New(Config{Primary: "http://unused", Registry: newFakeRegistry()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	done := make(chan struct{})
	go func() { s.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop on a never-started Syncer hung")
	}
}

func TestStatusLag(t *testing.T) {
	clock := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	now := func() time.Time { return clock }
	p := newFakePrimary(t)
	reg := newFakeRegistry()
	s, err := New(Config{Primary: p.srv.URL, Registry: reg, Now: now})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	clock = clock.Add(7 * time.Second)
	if lag := s.Status().LagSeconds; lag != 7 {
		t.Fatalf("pre-sync lag = %v, want 7 (since creation)", lag)
	}
	if err := s.SyncOnce(context.Background()); err != nil {
		t.Fatalf("pass: %v", err)
	}
	clock = clock.Add(3 * time.Second)
	if lag := s.Status().LagSeconds; lag != 3 {
		t.Fatalf("post-sync lag = %v, want 3 (since success)", lag)
	}
}
