// Package replica implements the pull-by-digest model sync loop behind
// genclusd's -replica-of mode: a Syncer periodically lists a primary's
// /v1/models registry, downloads every model whose snapshot digest the
// local registry does not already hold via /v1/models/{id}/export, verifies
// the bytes hash to the digest the primary advertised (the snapshot codec's
// CRC check runs again at install time), and removes local models the
// primary dropped.
//
// The protocol is deliberately dumb: the registry listing is the entire
// source of truth, every pass reconciles the full id → digest map, and a
// missed pass costs nothing but lag. Digests make the sync idempotent and
// cheap — an unchanged model is never re-downloaded, and a replica
// restarted on its data dir resumes from whatever it had persisted.
//
// Both requests go through the Go SDK (package client) with its retries
// off, so the Syncer's own backoff is the only retry policy, and every
// response body is capped at MaxSnapshotBytes. The Syncer owns no models
// itself; it drives a Registry implementation (the server's model
// registry, or a fake in tests). Failures back off exponentially and are
// surfaced as a client.ReplicationStats for /healthz, /metrics and GET
// /v1/replication.
package replica

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"genclus/client"
	"genclus/internal/snapshot"
	"genclus/internal/trace"
)

// Registry is the local model store a Syncer reconciles against the
// primary's listing. Implementations must be safe for concurrent use with
// whatever else reads them (the Syncer calls from its own goroutine).
type Registry interface {
	// LocalModels returns the current id → snapshot-digest map.
	LocalModels() map[string]string
	// Install registers verified snapshot bytes under the given id,
	// replacing any previous snapshot held under that id.
	Install(id string, data []byte) error
	// Remove deletes the model under id; removing an absent id is a no-op.
	Remove(id string) error
}

// Config configures a Syncer. Primary and Registry are required; zero
// fields take the documented defaults.
type Config struct {
	// Primary is the primary's base URL (e.g. "http://primary:8080").
	Primary string
	// Registry is the local model registry to reconcile.
	Registry Registry
	// Interval is the pause between successful sync passes (default 2s).
	Interval time.Duration
	// MaxSnapshotBytes caps every response body from the primary — the
	// listing and each export (default 32 MiB, the daemon's default
	// request-body bound); a primary advertising a bigger snapshot fails
	// the pass rather than ballooning replica memory.
	MaxSnapshotBytes int64
	// Logger receives sync progress and failure lines (default
	// slog.Default()).
	Logger *slog.Logger
	// Tracer, when set, records one trace per sync pass and propagates its
	// traceparent on every list/export request, so a replica's pulls join
	// up with the primary's request traces. Nil records nothing; the
	// requests then carry the traceparents the SDK mints.
	Tracer *trace.Recorder
	// Now is the test clock hook (default time.Now).
	Now func() time.Time
}

const (
	// maxBackoff caps the exponential backoff between failed passes (never
	// below Interval).
	maxBackoff = 30 * time.Second
	// passTimeout bounds one whole sync pass — listing plus every export
	// it decides to pull.
	passTimeout = time.Minute
)

// Syncer runs the replication loop. Create with New, then Start; Stop
// cancels any in-flight pass and waits for the loop goroutine to exit.
type Syncer struct {
	cfg    Config
	c      *client.Client
	log    *slog.Logger
	now    func() time.Time
	cancel context.CancelFunc // aborts in-flight requests on Stop
	ctx    context.Context

	startOnce sync.Once
	stopOnce  sync.Once
	stopped   chan struct{}

	mu sync.Mutex
	st client.ReplicationStats // counters; Status fills in LagSeconds
	// since is the lag origin: creation, then each successful pass's end.
	since time.Time
}

// New validates the config and builds a stopped Syncer.
func New(cfg Config) (*Syncer, error) {
	if cfg.Primary == "" {
		return nil, errors.New("replica: primary URL required")
	}
	if cfg.Registry == nil {
		return nil, errors.New("replica: registry required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.MaxSnapshotBytes <= 0 {
		cfg.MaxSnapshotBytes = 32 << 20
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	hc := &http.Client{Transport: cappedTransport(cfg.MaxSnapshotBytes)}
	ctx, cancel := context.WithCancel(context.Background())
	return &Syncer{
		cfg:     cfg,
		c:       client.New(cfg.Primary, client.WithHTTPClient(hc), client.WithRetries(0, 0)),
		log:     log,
		now:     now,
		ctx:     ctx,
		cancel:  cancel,
		stopped: make(chan struct{}),
		st:      client.ReplicationStats{Active: true, Primary: cfg.Primary},
		since:   now(),
	}, nil
}

// cappedTransport wraps every response body in a reader that fails past n
// bytes, so neither the listing nor an export can outgrow the cap.
type cappedTransport int64

// RoundTrip implements http.RoundTripper over http.DefaultTransport.
func (n cappedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		resp.Body = http.MaxBytesReader(nil, resp.Body, int64(n))
	}
	return resp, err
}

// Start launches the sync loop: an immediate first pass, then one per
// Interval, stretching into exponential backoff while passes fail.
// Idempotent.
func (s *Syncer) Start() {
	s.startOnce.Do(func() { go s.run() })
}

// Stop aborts any in-flight pass and waits for the loop to exit. A Syncer
// that was never started stops immediately. Idempotent.
func (s *Syncer) Stop() {
	s.stopOnce.Do(func() {
		s.cancel()
		s.startOnce.Do(func() { close(s.stopped) }) // never started: nothing to wait for
	})
	<-s.stopped
}

func (s *Syncer) run() {
	defer close(s.stopped)
	for {
		ctx, cancel := context.WithTimeout(s.ctx, passTimeout)
		_ = s.SyncOnce(ctx)
		cancel()
		select {
		case <-s.ctx.Done():
			return
		case <-time.After(s.nextDelay()):
		}
	}
}

// nextDelay returns the pause before the next pass: Interval after
// success, exponential backoff while failing.
func (s *Syncer) nextDelay() time.Duration {
	s.mu.Lock()
	failures := s.st.ConsecutiveFailures
	s.mu.Unlock()
	return backoff(s.cfg.Interval, failures, max(maxBackoff, s.cfg.Interval))
}

// backoff is the delay schedule: base after success (failures == 0), then
// base·2^failures capped at max.
func backoff(base time.Duration, failures int, max time.Duration) time.Duration {
	d := base
	for i := 0; i < failures && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// SyncOnce runs one reconciliation pass and records its outcome in Status.
// The loop calls it on its own cadence; tests (and operators embedding the
// Syncer) may call it directly.
func (s *Syncer) SyncOnce(ctx context.Context) error {
	// One trace per pass; its traceparent rides every outbound request via
	// the context, so the primary's request traces share this trace id.
	span := s.cfg.Tracer.StartTrace("replica.sync_pass", trace.SpanContext{}, s.now())
	span.SetAttr("primary", s.cfg.Primary)
	ctx = client.WithTraceparent(ctx, span.Context().Traceparent())
	installed, removed, err := s.pass(ctx)
	span.SetAttr("models_synced", installed)
	span.SetAttr("models_deleted", removed)
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	span.End(s.now())

	s.mu.Lock()
	s.st.ModelsSynced += uint64(installed)
	s.st.ModelsDeleted += uint64(removed)
	if err != nil {
		s.st.SyncErrors++
		s.st.ConsecutiveFailures++
		s.st.LastError = err.Error()
	} else {
		s.since = s.now()
		s.st.Syncs++
		s.st.ConsecutiveFailures = 0
		s.st.LastError = ""
		s.st.LastSync = s.since.UTC().Format(time.RFC3339Nano)
	}
	failures := s.st.ConsecutiveFailures
	s.mu.Unlock()

	if err != nil {
		s.log.LogAttrs(ctx, slog.LevelWarn, "replica sync failed",
			slog.String("primary", s.cfg.Primary),
			slog.Int("consecutive_failures", failures),
			slog.String("error", err.Error()),
		)
	} else if installed > 0 || removed > 0 {
		s.log.LogAttrs(ctx, slog.LevelInfo, "replica sync applied",
			slog.String("primary", s.cfg.Primary),
			slog.Int("models_synced", installed),
			slog.Int("models_deleted", removed),
		)
	}
	return err
}

// pass is one reconciliation: list, pull what differs, delete what the
// primary dropped. A failed listing aborts the pass before any install, and
// a failed export (transport, backpressure, an over-cap body) aborts it at
// that model — no hammering a primary that answered 429/503 — keeping what
// earlier models installed. A per-model digest mismatch or install failure
// skips that model but lets the rest of the pass proceed; the pass's error
// joins every one of them. Deletes run only after every export, off a
// successfully-fetched listing, so an unreachable primary can never
// mass-delete a replica's registry.
func (s *Syncer) pass(ctx context.Context) (installed, removed int, err error) {
	listed, err := s.c.ListModels(ctx)
	if err != nil {
		return 0, 0, fmt.Errorf("replica: list models: %w", err)
	}
	local := s.cfg.Registry.LocalModels()
	var modelErrs []error
	for _, m := range listed {
		if local[m.ID] == m.Digest {
			continue
		}
		data, err := s.c.ExportModel(ctx, m.ID)
		if client.IsNotFound(err) {
			continue // deleted between listing and export; next pass reconciles
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				err = fmt.Errorf("snapshot exceeds %d bytes", tooBig.Limit)
			}
			modelErrs = append(modelErrs, fmt.Errorf("replica: export model %s: %w", m.ID, err))
			return installed, 0, errors.Join(modelErrs...)
		}
		if got := snapshot.DataDigest(data); got != m.Digest {
			modelErrs = append(modelErrs, fmt.Errorf("model %s: export digest %s does not match listed %s", m.ID, got, m.Digest))
			continue
		}
		if err := s.cfg.Registry.Install(m.ID, data); err != nil {
			modelErrs = append(modelErrs, fmt.Errorf("install model %s: %w", m.ID, err))
			continue
		}
		installed++
	}
	keep := make(map[string]bool, len(listed))
	for _, m := range listed {
		keep[m.ID] = true
	}
	for id := range local {
		if keep[id] {
			continue
		}
		if err := s.cfg.Registry.Remove(id); err != nil {
			modelErrs = append(modelErrs, fmt.Errorf("remove model %s: %w", id, err))
			continue
		}
		removed++
	}
	return installed, removed, errors.Join(modelErrs...)
}

// Status returns the loop's current counters and staleness.
func (s *Syncer) Status() client.ReplicationStats {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	if lag := now.Sub(s.since).Seconds(); lag > 0 {
		st.LagSeconds = lag
	}
	return st
}
