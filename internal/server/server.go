// Package server implements genclusd: a long-running HTTP service that
// accepts heterogeneous information network uploads, schedules GenClus fits
// on a bounded async job queue, and serves the fitted models — hard
// assignments, soft memberships, learned relation strengths, and optional
// eval metrics against submitted ground truth.
//
// The API surface (all request/response bodies are JSON):
//
//	POST   /v1/networks           upload a network (hin JSON format) → {id}
//	POST   /v1/networks/{id}/edges      add/remove links (streaming mutation)
//	POST   /v1/networks/{id}/objects    add objects with links and observations
//	PATCH  /v1/networks/{id}/attributes replace per-object observations
//	GET    /v1/networks/{id}/supervisor continuous-clustering supervisor status
//	POST   /v1/jobs               submit a fit     → {id, state}
//	GET    /v1/jobs/{id}          job status and progress
//	GET    /v1/jobs/{id}/result   fitted model (409 until the job is done)
//	GET    /v1/jobs/{id}/events   live progress stream (Server-Sent Events)
//	DELETE /v1/jobs/{id}          cancel a queued or running job
//	GET    /v1/models             list registered models
//	GET    /v1/models/{id}        model metadata
//	DELETE /v1/models/{id}        delete a model (registry and disk)
//	GET    /v1/models/{id}/export download the binary model snapshot
//	POST   /v1/models/{id}/assign fold new objects into a model (online inference)
//	POST   /v1/models/import      register an uploaded snapshot → metadata
//	GET    /v1/replication        node role and replica sync state
//	GET    /v1/traces             recent completed request/job traces
//	GET    /v1/traces/{id}        one trace by 32-hex trace id
//	GET    /v1/jobs/{id}/trace    a fit's span timeline (queue wait, iterations)
//	GET    /healthz               liveness plus queue statistics
//	GET    /metrics               Prometheus text-format metrics
//
// Registered models also serve online inference: POST
// /v1/models/{id}/assign folds batches of new objects — links to known
// objects plus optional partial attribute observations — into the model's
// hidden space without refitting, one engine pass per request under a
// per-model lock (see assign.go and docs/ARCHITECTURE.md, "Inference").
//
// Uploaded networks are not frozen: the mutation endpoints stream edge,
// object and attribute changes into new immutable view generations,
// append them to a crash-safe per-network delta log (replayed at
// startup), and wake a continuous-clustering supervisor that schedules
// warm-start refits once the live view drifts from the newest model (see
// mutate.go, supervisor.go and docs/ARCHITECTURE.md, "Continuous
// clustering").
//
// A job submission may name a finished job in warm_start_from, or a
// registered model in warm_start_from_model: the new fit is then
// warm-started from that fitted state (memberships by object ID, strengths
// by relation name, attribute models by attribute name), so re-clustering a
// grown or perturbed network converges in a fraction of a cold start's
// iterations. Every finished fit is registered as a model automatically;
// models — unlike jobs — are never TTL-evicted, and with Config.DataDir set
// they (and finished jobs) survive restarts and SIGKILL (see
// docs/ARCHITECTURE.md, "Persistence").
//
// With Config.ReplicaOf set the server runs as a read-only replica of
// another genclusd: a background loop mirrors the primary's model registry
// by snapshot digest, mutating routes answer a typed 403
// (client.CodeReadOnlyReplica), and /assign serves from the synced
// registry — see replication.go and docs/ARCHITECTURE.md, "Replication".
//
// The /v1 surface is additive-only: fields and endpoints may be added, but
// existing request fields, response fields, and status codes keep their
// meaning until a /v2 (see README, "API compatibility").
//
// Malformed or oversized input is always a 4xx, never a 5xx: the decoder
// runs behind http.MaxBytesReader and hin.Limits, and job options are
// validated before anything is queued.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"genclus/client"
	"genclus/internal/core"
	"genclus/internal/hin"
	"genclus/internal/replica"
	diskstore "genclus/internal/store"
	"genclus/internal/trace"
)

// Config sizes the service. Zero fields take the documented defaults.
type Config struct {
	// Workers is the number of concurrent fits (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of jobs waiting to run (default 64);
	// submissions beyond it get 503.
	QueueDepth int
	// JobTTL evicts finished jobs and idle networks this long after their
	// last use (default 1h).
	JobTTL time.Duration
	// SweepEvery is the eviction cadence (default JobTTL/4, min 1s).
	SweepEvery time.Duration
	// MaxBodyBytes caps request bodies (default 32 MiB).
	MaxBodyBytes int64
	// Limits bounds decoded networks; the zero value takes DefaultLimits.
	Limits hin.Limits
	// MaxK caps the requested cluster count (default 4096). K multiplies
	// into every Θ row and every categorical β matrix, so an unbounded K
	// is a one-request memory bomb.
	MaxK int
	// MaxOuterIters, MaxEMIters and MaxInitSeeds cap the corresponding
	// job options (defaults 1e6, 10_000, 1024); MaxEMIters also caps
	// init_seed_steps, the EM iterations each candidate seed runs, and
	// newton_iters, the Newton steps of each strength step. They
	// bound per-job compute only loosely — a runaway job is cancellable
	// via DELETE — but keep a single request from scheduling effectively
	// unbounded work by accident.
	MaxOuterIters int
	MaxEMIters    int
	MaxInitSeeds  int

	// MaxAssignBatch caps the query objects of a single assign request,
	// and so of its engine pass (default 256).
	MaxAssignBatch int
	// MaxAssignLinks caps the links of a single assign query object
	// (default 4096).
	MaxAssignLinks int
	// MaxAssignObs caps the term-count observations and, separately, the
	// numeric observations of a single assign query object (default 4096).
	MaxAssignObs int
	// MaxAssignEngines caps the per-model inference engine cache (default
	// 64); least-recently-used engines are dropped beyond it and rebuilt
	// on demand.
	MaxAssignEngines int
	// MaxAssignQueue bounds, per model, the query objects of requests
	// waiting for the model's engine (default 4×MaxAssignBatch; negative
	// disables the bound). Requests past the cap are shed with 429
	// client.CodeOverloaded instead of piling up behind a slow pass.
	MaxAssignQueue int
	// MaxAssignInFlight caps assign requests concurrently inside admission
	// control across all models (default 1024; negative disables).
	// Overflow is shed with 429 client.CodeOverloaded.
	MaxAssignInFlight int
	// AssignRPS, when positive, rate-limits assign admissions to this many
	// requests per second via a token bucket of AssignBurst tokens
	// (default burst: max(1, ceil(AssignRPS))). Zero disables.
	AssignRPS   float64
	AssignBurst int

	// WriteTimeout is the per-request write deadline applied to every
	// non-streaming route (default 1m; negative disables). SSE event
	// streams are exempt — they legitimately outlive any single write
	// budget and are bounded by drain/TTL instead.
	WriteTimeout time.Duration

	// MaxTraces bounds the in-memory ring of recent completed request
	// traces served on GET /v1/traces (default 256). Job traces live on the
	// job itself for its TTL; the ring only bounds the fleet-wide recent
	// view.
	MaxTraces int
	// TraceSlow promotes requests slower than this to a Warn-level log
	// line carrying the trace id, so slow requests surface at default
	// verbosity with a handle into /v1/traces (default 1s; negative
	// disables promotion).
	TraceSlow time.Duration
	// Logger receives structured request, job, and persistence logs (nil:
	// slog.Default()). Per-request lines are Debug level; degraded
	// durability and 5xx responses log at Warn/Error.
	Logger *slog.Logger

	// DataDir, when set, makes finished fits durable: model snapshots and
	// job records are written crash-safely under it and replayed at
	// startup, so a restarted (or SIGKILLed) daemon serves every fit that
	// had reported done. Empty keeps everything in memory.
	DataDir string
	// MaxModels caps the model registry (default 1024); registering beyond
	// it evicts the oldest models from memory and disk.
	MaxModels int

	// SupervisorMaxPending triggers an automatic warm-start refit of a
	// mutated network once this many mutations accumulated since the last
	// refit was scheduled (default 32; negative disables the depth
	// trigger).
	SupervisorMaxPending int
	// SupervisorDriftThreshold triggers a refit once the drift score —
	// mean total-variation distance between touched objects' fold-in
	// posteriors and the newest model's memberships, in [0, 1] — reaches
	// it (default 0.25; negative disables the drift trigger).
	SupervisorDriftThreshold float64
	// SupervisorInterval is the supervisor's evaluation cadence between
	// mutation-driven wakeups (default 5s).
	SupervisorInterval time.Duration
	// SupervisorDisabled turns continuous clustering off entirely: no
	// supervisor goroutines start, mutations still apply and log.
	SupervisorDisabled bool

	// ReplicaOf, when set to a primary's base URL, runs this server as a
	// read-only replica: a sync loop mirrors the primary's model registry
	// by digest (see replication.go), mutating routes answer a typed 403
	// client.CodeReadOnlyReplica, and /assign serves from the synced
	// registry.
	ReplicaOf string
	// SyncInterval is the pause between successful replica sync passes
	// (default 2s; only meaningful with ReplicaOf).
	SyncInterval time.Duration

	// now is the test clock hook; nil means time.Now.
	now func() time.Time
}

// DefaultLimits is the upload bound genclusd ships with: generous for real
// workloads, tight enough that a small hostile document cannot force a
// giant allocation (MaxVocab in particular multiplies into K×Vocab floats
// per categorical attribute on every fit).
func DefaultLimits() hin.Limits {
	return hin.Limits{
		MaxObjects:      2_000_000,
		MaxLinks:        20_000_000,
		MaxAttributes:   64,
		MaxVocab:        1_000_000,
		MaxObservations: 50_000_000,
	}
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.JobTTL <= 0 {
		c.JobTTL = time.Hour
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = c.JobTTL / 4
		if c.SweepEvery < time.Second {
			c.SweepEvery = time.Second
		}
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Limits == (hin.Limits{}) {
		c.Limits = DefaultLimits()
	}
	if c.MaxK <= 0 {
		c.MaxK = 4096
	}
	if c.MaxOuterIters <= 0 {
		c.MaxOuterIters = 1_000_000
	}
	if c.MaxEMIters <= 0 {
		c.MaxEMIters = 10_000
	}
	if c.MaxInitSeeds <= 0 {
		c.MaxInitSeeds = 1024
	}
	if c.MaxModels <= 0 {
		c.MaxModels = 1024
	}
	if c.MaxAssignBatch <= 0 {
		c.MaxAssignBatch = 256
	}
	if c.MaxAssignLinks <= 0 {
		c.MaxAssignLinks = 4096
	}
	if c.MaxAssignObs <= 0 {
		c.MaxAssignObs = 4096
	}
	if c.MaxAssignEngines <= 0 {
		c.MaxAssignEngines = 64
	}
	if c.MaxAssignQueue == 0 {
		c.MaxAssignQueue = 4 * c.MaxAssignBatch
	}
	if c.MaxAssignQueue < 0 {
		c.MaxAssignQueue = 0 // disabled
	}
	if c.MaxAssignInFlight == 0 {
		c.MaxAssignInFlight = 1024
	}
	if c.MaxAssignInFlight < 0 {
		c.MaxAssignInFlight = 0 // disabled
	}
	if c.AssignRPS > 0 && c.AssignBurst <= 0 {
		c.AssignBurst = int(c.AssignRPS)
		if float64(c.AssignBurst) < c.AssignRPS {
			c.AssignBurst++
		}
		if c.AssignBurst < 1 {
			c.AssignBurst = 1
		}
	}
	if c.SupervisorMaxPending == 0 {
		c.SupervisorMaxPending = 32
	}
	if c.SupervisorMaxPending < 0 {
		c.SupervisorMaxPending = 0 // disabled
	}
	if c.SupervisorDriftThreshold == 0 {
		c.SupervisorDriftThreshold = 0.25
	}
	if c.SupervisorDriftThreshold < 0 {
		c.SupervisorDriftThreshold = 0 // disabled
	}
	if c.SupervisorInterval <= 0 {
		c.SupervisorInterval = 5 * time.Second
	}
	if c.ReplicaOf != "" {
		// A replica never fits or mutates, so continuous clustering has
		// nothing to supervise.
		c.SupervisorDisabled = true
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = 2 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = time.Minute
	}
	if c.WriteTimeout < 0 {
		c.WriteTimeout = 0 // disabled
	}
	if c.MaxTraces <= 0 {
		c.MaxTraces = 256
	}
	if c.TraceSlow == 0 {
		c.TraceSlow = time.Second
	}
	if c.TraceSlow < 0 {
		c.TraceSlow = 0 // disabled
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Server is the genclusd HTTP service. Create with New, mount via Handler,
// and Close on shutdown to stop workers and abort running fits.
type Server struct {
	cfg     Config
	store   *store
	manager *manager
	mux     *http.ServeMux
	started time.Time
	// blobs is the crash-safe on-disk store under Config.DataDir; nil when
	// persistence is disabled.
	blobs     *diskstore.Store
	recovered RecoveryStats
	// assignCache holds the per-model inference engines, each behind the
	// lock that serializes its passes (see assign.go).
	assignCache assignEngines
	// assignInFlight counts assign requests inside admission control (the
	// in-flight cap compares against it; genclus_assign_in_flight reads it);
	// assignLimiter is the optional token-bucket rate limiter (nil: off).
	assignInFlight atomic.Int64
	assignLimiter  *tokenBucket
	// assignPassHook, when set (tests), runs at the start of every engine
	// pass — it lets overload tests hold a pass open deterministically.
	assignPassHook func()
	// log and metrics are the operations surface: structured logs and the
	// /metrics instrument registry (see metrics.go). The registry is the
	// only store of the daemon's counters; /healthz reads them from it.
	log     *slog.Logger
	metrics *serverMetrics
	// tracer records every request, job, sync-pass and supervisor-decision
	// trace; its ring backs GET /v1/traces (see trace.go).
	tracer *trace.Recorder
	// runtimeSamples caches runtime.ReadMemStats for the telemetry gauges
	// and the /healthz runtime block (see runtimeTelemetry).
	runtimeSamples runtimeSampler
	// syncer is the replica-mode sync loop mirroring Config.ReplicaOf's
	// model registry; nil on a primary (see replication.go).
	syncer  *replica.Syncer
	sweeper chan struct{} // closed by Close to stop the janitor
	// draining closes when event streams must end (DrainStreams/Close).
	// Without it, a live SSE connection would hold http.Server.Shutdown
	// open for its whole timeout.
	draining  chan struct{}
	drainOnce sync.Once
	closeOnce sync.Once
}

// New builds a Server, replays Config.DataDir (when set) into the job table
// and model registry, and starts the worker pool and eviction janitor. It
// fails only on an unusable data dir — per-artifact recovery problems are
// skipped and counted in Recovered instead.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	st := newStore(cfg.JobTTL, cfg.now)
	s := &Server{
		cfg:      cfg,
		store:    st,
		mux:      http.NewServeMux(),
		started:  cfg.now(),
		log:      cfg.Logger,
		tracer:   trace.NewRecorder(cfg.MaxTraces),
		sweeper:  make(chan struct{}),
		draining: make(chan struct{}),
	}
	s.assignCache.cap = cfg.MaxAssignEngines
	s.metrics = s.newServerMetrics()
	if cfg.DataDir != "" {
		blobs, err := diskstore.Open(cfg.DataDir)
		if err != nil {
			return nil, fmt.Errorf("server: open data dir: %w", err)
		}
		s.blobs = blobs
		if err := s.recoverFromDisk(); err != nil {
			return nil, fmt.Errorf("server: recover data dir: %w", err)
		}
	}
	s.manager = newManager(cfg.Workers, cfg.QueueDepth, cfg.now, s.metrics, s.log)
	s.manager.onDone = s.persistFinishedJob
	if cfg.AssignRPS > 0 {
		s.assignLimiter = newTokenBucket(cfg.AssignRPS, cfg.AssignBurst, cfg.now)
	}
	for _, rt := range s.routes() {
		s.mux.HandleFunc(rt.Method+" "+rt.Path, s.instrument(rt))
	}
	// Resume supervision of recovered mutated networks now that metrics
	// and the manager exist (their first evaluation waits for mutations or
	// the first tick).
	for id, e := range st.mutatedNetworks() {
		s.ensureSupervisor(id, e)
	}
	if cfg.ReplicaOf != "" {
		if err := s.startReplication(); err != nil {
			return nil, fmt.Errorf("server: replica sync: %w", err)
		}
	}
	go s.janitor()
	return s, nil
}

// Route is one registered endpoint: an HTTP method plus a net/http pattern
// (path parameters in {braces}). Routes() exposes the table so tests can
// assert that docs/openapi.yaml covers every endpoint — the spec and the
// mux share this single source of truth.
type Route struct {
	Method string
	Path   string

	handler http.HandlerFunc
	// sse marks long-lived streaming routes, which the instrument
	// middleware exempts from the per-request write deadline.
	sse bool
	// mutating marks routes that change server state; in replica mode
	// (Config.ReplicaOf) the instrument middleware answers them with a
	// typed 403 client.CodeReadOnlyReplica instead of dispatching the
	// handler.
	mutating bool
}

// routes is the single route table both the mux and Routes are built from.
func (s *Server) routes() []Route {
	return []Route{
		{Method: "POST", Path: "/v1/networks", handler: s.handleUploadNetwork, mutating: true},
		{Method: "POST", Path: "/v1/networks/{id}/edges", handler: s.handleMutateEdges, mutating: true},
		{Method: "POST", Path: "/v1/networks/{id}/objects", handler: s.handleMutateObjects, mutating: true},
		{Method: "PATCH", Path: "/v1/networks/{id}/attributes", handler: s.handleMutateAttributes, mutating: true},
		{Method: "GET", Path: "/v1/networks/{id}/supervisor", handler: s.handleSupervisorStatus},
		{Method: "POST", Path: "/v1/jobs", handler: s.handleSubmitJob, mutating: true},
		{Method: "GET", Path: "/v1/jobs/{id}", handler: s.handleJobStatus},
		{Method: "GET", Path: "/v1/jobs/{id}/result", handler: s.handleJobResult},
		{Method: "GET", Path: "/v1/jobs/{id}/events", handler: s.handleJobEvents, sse: true},
		{Method: "DELETE", Path: "/v1/jobs/{id}", handler: s.handleCancelJob, mutating: true},
		{Method: "GET", Path: "/v1/models", handler: s.handleListModels},
		{Method: "POST", Path: "/v1/models/import", handler: s.handleImportModel, mutating: true},
		{Method: "GET", Path: "/v1/models/{id}", handler: s.handleGetModel},
		{Method: "DELETE", Path: "/v1/models/{id}", handler: s.handleDeleteModel, mutating: true},
		{Method: "GET", Path: "/v1/models/{id}/export", handler: s.handleExportModel},
		{Method: "POST", Path: "/v1/models/{id}/assign", handler: s.handleAssign},
		{Method: "GET", Path: "/v1/replication", handler: s.handleReplication},
		{Method: "GET", Path: "/v1/traces", handler: s.handleListTraces},
		{Method: "GET", Path: "/v1/traces/{id}", handler: s.handleGetTrace},
		{Method: "GET", Path: "/v1/jobs/{id}/trace", handler: s.handleJobTrace},
		{Method: "GET", Path: "/healthz", handler: s.handleHealthz},
		{Method: "GET", Path: "/metrics", handler: s.handleMetrics},
	}
}

// Routes returns every registered endpoint (method + path pattern).
func (s *Server) Routes() []Route {
	out := s.routes()
	for i := range out {
		out[i].handler = nil
	}
	return out
}

// Handler returns the http.Handler serving the route table.
func (s *Server) Handler() http.Handler { return s.mux }

// DrainStreams ends every live event stream (idempotent). Hook it up via
// http.Server.RegisterOnShutdown so a graceful Shutdown is not held open by
// attached SSE consumers; Close calls it too.
func (s *Server) DrainStreams() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// Close stops the janitor, the continuous-clustering supervisors and the
// worker pool, cancelling running fits, ending live event streams, and
// waiting for worker and supervisor goroutines to exit. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.DrainStreams()
		close(s.sweeper)
		// The replica syncer stops before the registry's consumers so no
		// install can race a closing engine cache.
		if s.syncer != nil {
			s.syncer.Stop()
		}
		// Supervisors drain before the manager so none can schedule a
		// refit into a closing queue (a job close would cancel anyway —
		// this just keeps shutdown quiet and deterministic).
		for _, sup := range s.store.closeSupervisors() {
			sup.halt()
		}
		s.manager.close()
	})
}

func (s *Server) janitor() {
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-s.sweeper:
			return
		case <-t.C:
			jobs, nets := s.store.sweep()
			for _, id := range jobs {
				s.dropPersistedJob(id)
			}
			for id, e := range nets {
				s.retireNetwork(id, e)
			}
		}
	}
}

// ---- wire types ----
//
// The /v1 request and response documents are the Go SDK's exported types
// (package client), which the handlers encode and decode directly; the
// assign documents and the mutation elements are internal/infer's and
// internal/deltalog's, which the SDK aliases, and the error body is
// client.APIError. This package declares only the trace bodies (trace.go)
// and the persisted jobRecord (persist.go).

// applyJobOptions overlays a submission's options on core.DefaultOptions(K);
// nil fields keep the defaults.
func applyJobOptions(jo *client.JobOptions, opts *core.Options) {
	if jo == nil {
		return
	}
	opts.Attributes = jo.Attributes
	if jo.OuterIters != nil {
		opts.OuterIters = *jo.OuterIters
	}
	if jo.EMIters != nil {
		opts.EMIters = *jo.EMIters
	}
	if jo.EMTol != nil {
		opts.EMTol = *jo.EMTol
	}
	if jo.OuterTol != nil {
		opts.OuterTol = *jo.OuterTol
	}
	if jo.NewtonIters != nil {
		opts.NewtonIters = *jo.NewtonIters
	}
	if jo.PriorSigma != nil {
		opts.PriorSigma = *jo.PriorSigma
	}
	if jo.Seed != nil {
		opts.Seed = *jo.Seed
	}
	if jo.InitSeeds != nil {
		opts.InitSeeds = *jo.InitSeeds
	}
	if jo.InitSeedSteps != nil {
		opts.InitSeedSteps = *jo.InitSeedSteps
	}
	if jo.Parallelism != nil {
		opts.Parallelism = *jo.Parallelism
	}
	if jo.LearnGamma != nil {
		opts.LearnGamma = *jo.LearnGamma
	}
	if jo.InitialGamma != nil {
		opts.InitialGamma = *jo.InitialGamma
	}
	if jo.SymmetricPropagation != nil {
		opts.SymmetricPropagation = *jo.SymmetricPropagation
	}
	if jo.Epsilon != nil {
		opts.Epsilon = *jo.Epsilon
	}
	if jo.Precision != nil {
		// Unvalidated copy: Options.Validate rejects unknown precisions
		// with core.PrecisionError, surfaced as 400 like every other
		// invalid option.
		opts.Precision = core.Precision(*jo.Precision)
	}
}

// progressDoc converts a core progress report to its wire shape.
func progressDoc(p core.Progress) *client.Progress {
	return &client.Progress{Outer: p.Outer, OuterTotal: p.OuterTotal, Objective: p.Objective, EMIterations: p.EMIterations}
}

// ---- handlers ----

// writeJSON answers code with v's JSON encoding. v is encoded before the
// header is written, so a document that cannot be encoded (a NaN, say)
// answers a 500 error body instead of code with no body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(data, '\n')) // a client that has gone away leaves nothing to answer
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeErrorCode(w, code, "", format, args...)
}

// writeErrorCode is writeError with a machine-readable error code attached.
func writeErrorCode(w http.ResponseWriter, code int, apiCode, format string, args ...any) {
	writeJSON(w, code, client.APIError{Message: fmt.Sprintf(format, args...), Code: apiCode, RequestID: responseRequestID(w)})
}

// responseRequestID recovers the request's trace id from the instrumented
// ResponseWriter chain so every error body — 4xx shed loads included — can
// carry it without threading the id through each handler. Writers outside
// the middleware (tests calling handlers directly) yield "".
func responseRequestID(w http.ResponseWriter) string {
	for w != nil {
		switch v := w.(type) {
		case interface{ traceRequestID() string }:
			return v.traceRequestID()
		case interface{ Unwrap() http.ResponseWriter }:
			w = v.Unwrap()
		default:
			return ""
		}
	}
	return ""
}

// readBody drains a size-capped request body, mapping an overflow to 413.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		} else {
			writeError(w, http.StatusBadRequest, "read request body: %v", err)
		}
		return nil, false
	}
	return data, true
}

func (s *Server) handleUploadNetwork(w http.ResponseWriter, r *http.Request) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	net, err := hin.FromJSONLimited(data, s.cfg.Limits)
	if err != nil {
		code := http.StatusBadRequest
		var lim *hin.LimitError
		if errors.As(err, &lim) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "%v", err)
		return
	}
	// Materialize the in-link view at the trust boundary, once per upload,
	// so the first fit of this network does not pay its build inside its
	// job slot (PrepareCSR is idempotent — a concurrent fit of the same
	// network just finds it ready).
	net.PrepareCSR()
	id := s.store.addNetwork(net)
	writeJSON(w, http.StatusCreated, client.NetworkInfo{
		ID:         id,
		Objects:    net.NumObjects(),
		Links:      net.NumEdges(),
		Relations:  net.Relations(),
		Attributes: attrNames(net),
	})
}

func attrNames(net *hin.Network) []string {
	specs := net.Attrs()
	out := make([]string, len(specs))
	for i, sp := range specs {
		out[i] = sp.Name
	}
	return out
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req client.JobSpec
	if err := json.Unmarshal(data, &req); err != nil {
		writeError(w, http.StatusBadRequest, "parse job request: %v", err)
		return
	}
	net, generation, ok := s.store.networkForJob(req.NetworkID)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown network %q", req.NetworkID)
		return
	}
	spec := fitSpec{
		networkID:  req.NetworkID,
		net:        net,
		generation: generation,
		opts:       core.DefaultOptions(req.K),
		truth:      req.Truth,
		parent:     spanContext(r.Context()),
	}
	applyJobOptions(req.Options, &spec.opts)
	if req.WarmStartFrom != "" && req.WarmStartFromModel != "" {
		writeError(w, http.StatusBadRequest, "warm_start_from and warm_start_from_model are mutually exclusive")
		return
	}
	if req.WarmStartFrom != "" {
		prior, ok := s.store.job(req.WarmStartFrom)
		if !ok {
			if s.store.jobEvicted(req.WarmStartFrom) {
				writeErrorCode(w, http.StatusNotFound, client.CodeJobEvicted, "warm-start job %q was evicted after its TTL", req.WarmStartFrom)
			} else {
				writeError(w, http.StatusNotFound, "unknown warm-start job %q", req.WarmStartFrom)
			}
			return
		}
		snap := prior.snapshot()
		if snap.state != client.StateDone {
			writeError(w, http.StatusConflict, "warm-start job %s is %s, not done", req.WarmStartFrom, snap.state)
			return
		}
		spec.warm = snap.result
	}
	if req.WarmStartFromModel != "" {
		entry, ok := s.store.model(req.WarmStartFromModel)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown warm-start model %q", req.WarmStartFromModel)
			return
		}
		spec.warm = entry.model
	}
	j, err := s.submitFit(spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errQueueFull) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, "%v", err)
		return
	}
	// The submit log line joins the request ID and the job ID — the only
	// place both are in hand — so the job's later start/finish lines can be
	// traced back to the originating request.
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "job submitted",
		slog.String("req", requestID(r.Context())),
		slog.String("job", j.id),
		slog.String("network", req.NetworkID),
	)
	writeJSON(w, http.StatusAccepted, s.jobDoc(j))
}

// fitSpec is one fit submission, from a client (POST /v1/jobs) or from a
// continuous-clustering supervisor's auto-refit.
type fitSpec struct {
	networkID  string
	net        *hin.Network // the view of generation, pinned for the fit
	generation int
	// opts are the requested options before the parallelism clamp and the
	// warm start; warm, when set, seeds the fit (its K is inherited when
	// opts.K is 0, and must match otherwise).
	opts  core.Options
	warm  *core.Model
	truth map[string]int
	// parent is the span the fit's trace continues (the submit request's,
	// or the supervisor decision's); trigger names an auto-refit's reason.
	parent  trace.SpanContext
	trigger string
}

// submitFit is the one path from a fit submission to a queued job, shared
// by client submissions and supervisor auto-refits so that an auto-refit is
// bitwise identical to a manual warm start of the same generation. Options
// go through the parallelism clamp, RefitOptions from the warm model, the
// server bounds and Validate, in that order; then the job is built, its
// job.fit trace started, queued and stored. Option and truth errors are
// client errors (400); errQueueFull means the queue has no room (503).
func (s *Server) submitFit(spec fitSpec) (*job, error) {
	opts := spec.opts
	// A fit can only use as many EM workers as there are cores; clamp
	// rather than letting one job oversubscribe the box.
	if procs := runtime.GOMAXPROCS(0); opts.Parallelism > procs {
		opts.Parallelism = procs
	}
	if spec.warm != nil {
		warm, err := spec.warm.RefitOptions(spec.net, opts)
		if err != nil {
			return nil, fmt.Errorf("warm start: %w", err)
		}
		opts = warm
	}
	if err := s.checkJobBounds(opts); err != nil {
		return nil, fmt.Errorf("invalid options: %w", err)
	}
	if err := opts.Validate(spec.net); err != nil {
		return nil, fmt.Errorf("invalid options: %w", err)
	}
	truth, err := denseTruth(spec.net, spec.truth)
	if err != nil {
		return nil, err
	}
	j := &job{
		id:         newID("job"),
		networkID:  spec.networkID,
		opts:       opts,
		truth:      truth,
		created:    s.cfg.now(),
		generation: spec.generation,
		net:        spec.net,
		state:      client.StateQueued,
		done:       make(chan struct{}),
	}
	// The fit's own trace starts now and continues the parent's trace, so a
	// caller-supplied traceparent flows SDK → submit → queue wait → every
	// outer iteration, and an auto-refit's trace continues its decision.
	j.span = s.tracer.StartTrace("job.fit", spec.parent, j.created)
	j.span.SetAttr("job", j.id)
	j.span.SetAttr("network", spec.networkID)
	if spec.trigger != "" {
		j.span.SetAttr("trigger", spec.trigger)
	}
	if err := s.manager.submit(j); err != nil {
		j.span.SetAttr("error", err.Error())
		j.span.End(s.cfg.now())
		return nil, err
	}
	s.store.addJob(j)
	return j, nil
}

// checkJobBounds enforces the server-side ceilings on job options —
// core.Options.Validate only checks lower bounds, and this is a trust
// boundary.
func (s *Server) checkJobBounds(opts core.Options) error {
	if opts.K > s.cfg.MaxK {
		return fmt.Errorf("k %d exceeds limit %d", opts.K, s.cfg.MaxK)
	}
	if opts.OuterIters > s.cfg.MaxOuterIters {
		return fmt.Errorf("outer_iters %d exceeds limit %d", opts.OuterIters, s.cfg.MaxOuterIters)
	}
	if opts.EMIters > s.cfg.MaxEMIters {
		return fmt.Errorf("em_iters %d exceeds limit %d", opts.EMIters, s.cfg.MaxEMIters)
	}
	if opts.InitSeedSteps > s.cfg.MaxEMIters {
		return fmt.Errorf("init_seed_steps %d exceeds limit %d", opts.InitSeedSteps, s.cfg.MaxEMIters)
	}
	if opts.NewtonIters > s.cfg.MaxEMIters {
		return fmt.Errorf("newton_iters %d exceeds limit %d", opts.NewtonIters, s.cfg.MaxEMIters)
	}
	if opts.InitSeeds > s.cfg.MaxInitSeeds {
		return fmt.Errorf("init_seeds %d exceeds limit %d", opts.InitSeeds, s.cfg.MaxInitSeeds)
	}
	return nil
}

// denseTruth validates the submitted ground truth against the network and
// aligns it to dense object indices (-1 = unlabeled).
func denseTruth(net *hin.Network, truth map[string]int) ([]int, error) {
	if len(truth) == 0 {
		return nil, nil
	}
	out := make([]int, net.NumObjects())
	for v := range out {
		out[v] = -1
	}
	for id, label := range truth {
		v, ok := net.IndexOf(id)
		if !ok {
			return nil, fmt.Errorf("truth references unknown object %q", id)
		}
		if label < 0 {
			return nil, fmt.Errorf("truth label for %q is negative", id)
		}
		out[v] = label
	}
	return out, nil
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok := s.store.job(id)
	if !ok {
		if s.store.jobEvicted(id) {
			writeErrorCode(w, http.StatusNotFound, client.CodeJobEvicted, "job %q was evicted after its TTL", id)
		} else {
			writeError(w, http.StatusNotFound, "unknown job %q", id)
		}
		return nil, false
	}
	return j, true
}

// jobDoc is a job's status document: the GET /v1/jobs/{id} body and the
// payload of the SSE "state" event.
func (s *Server) jobDoc(j *job) client.Job {
	snap := j.snapshot()
	resp := client.Job{
		ID:        j.id,
		NetworkID: j.networkID,
		State:     snap.state,
		Error:     snap.errMsg,
		ModelID:   snap.modelID,
		Created:   j.created.UTC().Format(time.RFC3339Nano),
	}
	if j.span != nil {
		resp.TraceID = j.span.TraceID().String()
	}
	if snap.state != client.StateQueued {
		resp.Progress = progressDoc(snap.progress)
	}
	if !snap.started.IsZero() {
		resp.Started = snap.started.UTC().Format(time.RFC3339Nano)
	}
	if !snap.finished.IsZero() {
		resp.Finished = snap.finished.UTC().Format(time.RFC3339Nano)
	}
	return resp
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.jobDoc(j))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	snap := j.snapshot()
	if snap.state != client.StateDone {
		writeError(w, http.StatusConflict, "job %s is %s, not done", j.id, snap.state)
		return
	}
	res := snap.result
	objects := make([]client.ObjectResult, len(snap.objects))
	labels := res.HardLabels()
	for v, info := range snap.objects {
		objects[v] = client.ObjectResult{
			ID:      info.ID,
			Type:    info.Type,
			Cluster: labels[v],
			Theta:   res.Theta[v],
		}
	}
	doc := &client.Result{
		ID:              j.id,
		K:               res.K,
		Objects:         objects,
		Gamma:           res.Gamma,
		Objective:       res.Objective,
		PseudoLL:        res.PseudoLL,
		EMIterations:    res.EMIterations,
		OuterIterations: res.OuterIterations,
		Metrics:         snap.metrics,
	}
	writeEncoded(w, http.StatusOK, resultSizeHint(doc), func(dst []byte) ([]byte, error) { return AppendResult(dst, doc) })
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	s.manager.cancelJob(j)
	writeJSON(w, http.StatusOK, s.jobDoc(j))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, client.Health{
		Status:          "ok",
		UptimeSeconds:   s.cfg.now().Sub(s.started).Seconds(),
		Workers:         s.cfg.Workers,
		Networks:        s.store.numNetworks(),
		Models:          s.store.numModels(),
		Jobs:            s.store.jobCounts(),
		PersistFailures: s.metrics.persistFailures.Value(),
		Assign:          s.metrics.assignStats(),
		Mutation:        s.metrics.mutationStats(s.store),
		Replication:     s.replicationStats(),
		Runtime:         s.runtimeTelemetry(),
	})
}
