package server

import (
	"context"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"genclus/client"
	"genclus/internal/metrics"
	"genclus/internal/trace"
)

// The operations layer: GET /metrics serves every counter the daemon
// tracks in the Prometheus text exposition format, fed by a small
// dependency-free registry (internal/metrics). Instruments are created
// once at New and held on serverMetrics, so hot-path increments are plain
// atomics — instrumentation cannot move the EM-iteration or assign-pass
// steady states off 0 allocs/op. Every route is wrapped by instrument(),
// which also assigns the per-request ID that structured logs thread
// through jobs, persistence and assign, and applies the per-route write
// deadline (SSE streams exempt — they are supposed to outlive any single
// write budget).

// serverMetrics holds every pre-registered instrument. The registry is the
// only store of the daemon's counters: /healthz builds its assign and
// mutation blocks and persist_failures from these instruments' values (see
// assignStats and mutationStats), and TestHealthzMetricsParity pins the
// healthz→/metrics name map.
type serverMetrics struct {
	reg *metrics.Registry

	// Per-route HTTP request durations, keyed by "METHOD /path" from the
	// route table. Request counts carry a code label too and are created
	// on demand (the code space is small and data-independent).
	httpDurations map[string]*metrics.Histogram

	fitQueueWait *metrics.Histogram // submit → fit start, seconds
	fitRun       *metrics.Histogram // fit start → terminal, seconds
	fitEMIters   *metrics.Histogram // EM iterations per finished fit
	fitJobs      map[client.JobState]*metrics.Counter

	assignRequests    *metrics.Counter
	assignObjects     *metrics.Counter
	assignBatched     *metrics.Counter
	assignPasses      *metrics.Counter
	assignCacheHits   *metrics.Counter
	assignCacheMisses *metrics.Counter
	assignShed        map[string]*metrics.Counter // by shed reason
	assignOccupancy   *metrics.Histogram          // query objects per engine pass
	assignPassSecs    *metrics.Histogram          // engine pass latency, seconds
	assignQueueDepth  *metrics.Gauge              // query objects waiting for engine locks

	networkMutations          *metrics.Counter
	supervisorRefitsTriggered *metrics.Counter
	supervisorRefitsSucceeded *metrics.Counter
	supervisorRefitsFailed    *metrics.Counter
	// driftBits is the most recent drift score any supervisor computed, as
	// math.Float64bits; the genclus_supervisor_drift_score gauge and the
	// healthz mutation block both read it.
	driftBits atomic.Uint64

	persistFailures *metrics.Counter
}

// newServerMetrics registers the full instrument inventory (see
// docs/ARCHITECTURE.md, "Operations") against a fresh registry. Gauges
// that shadow existing server state (queue depth, registry sizes, job
// states) are computed at scrape time from the same structures /healthz
// reads.
func (s *Server) newServerMetrics() *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{
		reg:           reg,
		httpDurations: make(map[string]*metrics.Histogram),
		fitQueueWait: reg.Histogram("genclus_fit_queue_wait_seconds",
			"Time a fit job spent queued before a worker picked it up.", metrics.DurationBuckets()),
		fitRun: reg.Histogram("genclus_fit_run_seconds",
			"Wall-clock fit time from start to terminal state.", metrics.DurationBuckets()),
		fitEMIters: reg.Histogram("genclus_fit_em_iterations",
			"EM iterations a finished fit executed (warm starts should sit far left of cold).", metrics.CountBuckets()),
		fitJobs: map[client.JobState]*metrics.Counter{},
		assignRequests: reg.Counter("genclus_assign_requests_total",
			"Assign requests that reached an engine pass."),
		assignObjects: reg.Counter("genclus_assign_objects_total",
			"Query objects scored across all assign requests."),
		assignBatched: reg.Counter("genclus_assign_batched_requests_total",
			"Assign requests whose engine pass was shared with another request (always 0: one pass per request)."),
		assignPasses: reg.Counter("genclus_assign_engine_passes_total",
			"Inference engine passes executed, one per assign request."),
		assignCacheHits: reg.Counter("genclus_assign_engine_cache_hits_total",
			"Per-model inference engine cache hits (by snapshot digest)."),
		assignCacheMisses: reg.Counter("genclus_assign_engine_cache_misses_total",
			"Per-model inference engine cache misses (engines built)."),
		assignShed: map[string]*metrics.Counter{},
		assignOccupancy: reg.Histogram("genclus_assign_pass_occupancy",
			"Query objects scored in one engine pass.", metrics.CountBuckets()),
		assignPassSecs: reg.Histogram("genclus_assign_pass_seconds",
			"Inference engine pass latency.", metrics.DurationBuckets()),
		assignQueueDepth: reg.Gauge("genclus_assign_queue_depth",
			"Query objects waiting for a busy assign engine."),
		networkMutations: reg.Counter("genclus_network_mutations_total",
			"Accepted network mutations (edges, objects, attributes) across all networks."),
		supervisorRefitsTriggered: reg.Counter("genclus_supervisor_refits_triggered_total",
			"Incremental refit jobs submitted by continuous-clustering supervisors."),
		supervisorRefitsSucceeded: reg.Counter("genclus_supervisor_refits_succeeded_total",
			"Supervisor-triggered refits that finished done and published a model."),
		supervisorRefitsFailed: reg.Counter("genclus_supervisor_refits_failed_total",
			"Supervisor-triggered refits that failed, were cancelled, or could not be prepared."),
		persistFailures: reg.Counter("genclus_persist_failures_total",
			"Fits whose snapshot or job record failed to reach the data dir (durability degraded)."),
	}
	for _, st := range []client.JobState{client.StateDone, client.StateFailed, client.StateCancelled} {
		m.fitJobs[st] = reg.Counter("genclus_fit_jobs_total",
			"Fit jobs by terminal state.", "state", string(st))
	}
	for _, reason := range []string{shedQueueFull, shedInFlight, shedRateLimit} {
		m.assignShed[reason] = reg.Counter("genclus_assign_shed_total",
			"Assign requests rejected with 429 by admission control, by reason.", "reason", reason)
	}
	for _, rt := range s.routes() {
		key := rt.Method + " " + rt.Path
		m.httpDurations[key] = reg.Histogram("genclus_http_request_duration_seconds",
			"HTTP request duration by route.", metrics.DurationBuckets(), "route", key)
	}
	reg.GaugeFunc("genclus_assign_in_flight",
		"Assign requests currently inside admission control.",
		func() float64 { return float64(s.assignInFlight.Load()) })
	reg.GaugeFunc("genclus_fit_queue_depth",
		"Fit jobs waiting in the bounded queue.",
		func() float64 { return float64(len(s.manager.queue)) })
	reg.GaugeFunc("genclus_networks",
		"Stored (non-evicted) networks.",
		func() float64 { return float64(s.store.numNetworks()) })
	reg.GaugeFunc("genclus_models",
		"Registered models.",
		func() float64 { return float64(s.store.numModels()) })
	reg.GaugeFunc("genclus_deltalog_depth",
		"Durable delta-log records pending across all mutated networks.",
		func() float64 { return float64(s.store.deltaDepth()) })
	reg.GaugeFunc("genclus_supervisors",
		"Continuous-clustering supervisors currently running.",
		func() float64 { return float64(s.store.numSupervisors()) })
	reg.GaugeFunc("genclus_supervisor_drift_score",
		"Most recent drift score any supervisor computed (mean TV distance, 0..1).",
		func() float64 { return math.Float64frombits(m.driftBits.Load()) })
	for _, st := range []client.JobState{client.StateQueued, client.StateRunning, client.StateDone, client.StateFailed, client.StateCancelled} {
		st := st
		reg.GaugeFunc("genclus_jobs",
			"Jobs in the job table by state.",
			func() float64 { return float64(s.store.jobCounts()[string(st)]) },
			"state", string(st))
	}
	// Replica-mode sync state, computed at scrape time from the syncer's
	// own counters (all zero on a primary) so /healthz and /metrics can
	// never disagree.
	reg.GaugeFunc("genclus_replica_lag_seconds",
		"Seconds since the replica last completed a sync pass against its primary (0 on a primary).",
		func() float64 { return s.replicationStats().LagSeconds })
	reg.GaugeFunc("genclus_replica_syncs_total",
		"Completed replica sync passes.",
		func() float64 { return float64(s.replicationStats().Syncs) })
	reg.GaugeFunc("genclus_replica_sync_errors_total",
		"Failed replica sync passes (listing, transport, verification, or install).",
		func() float64 { return float64(s.replicationStats().SyncErrors) })
	reg.GaugeFunc("genclus_replica_models_synced_total",
		"Models the replica sync loop installed from its primary.",
		func() float64 { return float64(s.replicationStats().ModelsSynced) })
	reg.GaugeFunc("genclus_replica_models_deleted_total",
		"Local models the replica sync loop removed because the primary dropped them.",
		func() float64 { return float64(s.replicationStats().ModelsDeleted) })
	// Go runtime telemetry, served from the shared TTL-cached sampler so a
	// scrape storm cannot hammer ReadMemStats (a stop-the-world call).
	reg.GaugeFunc("genclus_goroutines",
		"Goroutines currently live in the daemon process.",
		func() float64 { return float64(s.runtimeTelemetry().Goroutines) })
	reg.GaugeFunc("genclus_heap_alloc_bytes",
		"Bytes of live heap-allocated objects (runtime.MemStats.HeapAlloc).",
		func() float64 { return float64(s.runtimeTelemetry().HeapAllocBytes) })
	reg.GaugeFunc("genclus_gc_pause_total_seconds",
		"Cumulative stop-the-world GC pause time since process start.",
		func() float64 { return s.runtimeTelemetry().GCPauseTotalSeconds })
	reg.GaugeFunc("genclus_gc_cycles_total",
		"Completed GC cycles since process start.",
		func() float64 { return float64(s.runtimeTelemetry().GCCycles) })
	return m
}

// ---- runtime telemetry ----

// runtimeSampleTTL bounds how often the daemon calls runtime.ReadMemStats:
// one /metrics scrape reads four runtime gauges, and each ReadMemStats is a
// stop-the-world, so the four share a single cached sample (as do
// concurrent scrapers and /healthz).
const runtimeSampleTTL = 250 * time.Millisecond

// runtimeSampler caches one MemStats+goroutine sample for runtimeSampleTTL.
type runtimeSampler struct {
	mu         sync.Mutex
	at         time.Time
	mem        runtime.MemStats
	goroutines int
}

// runtimeTelemetry returns the current (TTL-cached) runtime stats block,
// mirrored 1:1 onto the genclus_goroutines / genclus_heap_alloc_bytes /
// genclus_gc_* gauges (parity pinned by TestHealthzMetricsParity).
func (s *Server) runtimeTelemetry() client.RuntimeStats {
	rs := &s.runtimeSamples
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if now := time.Now(); rs.at.IsZero() || now.Sub(rs.at) > runtimeSampleTTL {
		runtime.ReadMemStats(&rs.mem)
		rs.goroutines = runtime.NumGoroutine()
		rs.at = now
	}
	return client.RuntimeStats{
		Goroutines:          rs.goroutines,
		HeapAllocBytes:      rs.mem.HeapAlloc,
		GCPauseTotalSeconds: float64(rs.mem.PauseTotalNs) / 1e9,
		GCCycles:            rs.mem.NumGC,
	}
}

// httpRequestCounter is the on-demand {route, code} request counter; the
// label space is bounded by the route table times the handful of status
// codes the handlers emit.
func (m *serverMetrics) httpRequestCounter(route string, code int) *metrics.Counter {
	return m.reg.Counter("genclus_http_requests_total",
		"HTTP requests by route and status code.", "route", route, "code", strconv.Itoa(code))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.ContentType)
	s.metrics.reg.WritePrometheus(w)
}

// ---- request IDs + per-route middleware ----

// requestIDKey carries the request's trace id (hex) through the handler's
// context, so logs emitted deeper in the stack (job submission,
// persistence) can join up with the request line and /v1/traces.
type requestIDKey struct{}

// spanKey carries the request's root *trace.Span through the handler's
// context so downstream work (job creation) can parent onto it.
type spanKey struct{}

// requestID returns the request's trace id (the middleware-assigned
// request ID), "" outside a request context.
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// spanContext returns the request span's context for cross-boundary
// propagation (job roots, outbound headers); zero outside a request.
func spanContext(ctx context.Context) trace.SpanContext {
	if sp, ok := ctx.Value(spanKey{}).(*trace.Span); ok {
		return sp.Context()
	}
	return trace.SpanContext{}
}

// statusWriter records the response status for the request log and
// metrics, and carries the request's trace id so the error writers can
// stamp request_id into every error body (see responseRequestID). It
// deliberately does NOT implement http.Flusher itself — flushWriter adds
// that only when the underlying writer supports it, so the SSE handler's
// capability check still answers honestly.
type statusWriter struct {
	http.ResponseWriter
	code  int
	reqID string
}

// traceRequestID exposes the trace id to responseRequestID's writer walk.
func (sw *statusWriter) traceRequestID() string { return sw.reqID }

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// deadline and flush controls through the wrapper.
func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// flushWriter is statusWriter plus the Flusher capability, used when the
// wrapped writer has it.
type flushWriter struct{ *statusWriter }

// Flush implements http.Flusher by delegating to the wrapped writer.
func (fw flushWriter) Flush() { fw.statusWriter.ResponseWriter.(http.Flusher).Flush() }

// instrument wraps one route's handler with the operations envelope:
// write deadline (non-SSE routes only — an events stream may legitimately
// live for the whole fit), distributed-trace extraction, status capture,
// the per-route request counter and duration histogram, and one structured
// log line per request. Each request opens a root span named by its route:
// a valid inbound W3C traceparent header continues the caller's trace
// (same trace id, remote span as the root's parent), otherwise a fresh
// trace id is minted. That trace id IS the request ID — it threads through
// logs, error bodies (request_id), and GET /v1/traces/{id}. Request logs
// are Debug level (high volume; turn them on with -log-level debug),
// promoted to Warn on 5xx — a server fault should be visible at default
// verbosity — and on requests slower than Config.TraceSlow, so the slow
// tail surfaces with a trace handle attached.
func (s *Server) instrument(rt Route) http.HandlerFunc {
	routeKey := rt.Method + " " + rt.Path
	duration := s.metrics.httpDurations[routeKey]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if !rt.sse && s.cfg.WriteTimeout > 0 {
			// Per-route write deadline: a dead or deliberately slow reader
			// cannot hold a plain endpoint's connection (and its handler
			// goroutine) open forever. ErrNotSupported (exotic wrappers,
			// some test writers) just means no deadline — same as before.
			_ = http.NewResponseController(w).SetWriteDeadline(start.Add(s.cfg.WriteTimeout))
		}
		parent, _ := trace.Parse(r.Header.Get("traceparent"))
		span := s.tracer.StartTrace(routeKey, parent, start)
		reqID := span.TraceID().String()
		ctx := context.WithValue(r.Context(), requestIDKey{}, reqID)
		ctx = context.WithValue(ctx, spanKey{}, span)
		sw := &statusWriter{ResponseWriter: w, reqID: reqID}
		var ww http.ResponseWriter = sw
		if _, ok := w.(http.Flusher); ok {
			ww = flushWriter{sw}
		}
		if rt.mutating && s.cfg.ReplicaOf != "" {
			// Read-only replica: refuse writes inside the envelope so the
			// 403 still lands in metrics, the trace ring and the request log.
			writeErrorCode(ww, http.StatusForbidden, client.CodeReadOnlyReplica,
				"this node is a read-only replica of %s; send writes to the primary", s.cfg.ReplicaOf)
		} else {
			rt.handler(ww, r.WithContext(ctx))
		}
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		elapsed := time.Since(start)
		span.SetAttr("status", code)
		span.End(start.Add(elapsed))
		duration.Observe(elapsed.Seconds())
		s.metrics.httpRequestCounter(routeKey, code).Inc()
		level := slog.LevelDebug
		slow := s.cfg.TraceSlow > 0 && elapsed >= s.cfg.TraceSlow && !rt.sse
		if code >= 500 || slow {
			level = slog.LevelWarn
		}
		s.log.LogAttrs(ctx, level, "http request",
			slog.String("req", reqID),
			slog.String("route", routeKey),
			slog.Int("status", code),
			slog.Duration("elapsed", elapsed),
			slog.Bool("slow", slow),
		)
	}
}
