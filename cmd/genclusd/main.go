// Command genclusd is the GenClus clustering service: a long-running HTTP
// daemon that accepts network uploads, fits GenClus models on an async job
// queue with a bounded worker pool, streams fit progress over Server-Sent
// Events (GET /v1/jobs/{id}/events), supports warm-starting a job from a
// finished one (warm_start_from) or from a registered model
// (warm_start_from_model), and serves the fitted results and the
// /v1/models snapshot registry.
//
// Usage:
//
//	genclusd [-addr :8080] [-workers N] [-queue 64] [-ttl 1h]
//	         [-max-body 33554432] [-data-dir DIR] [-max-models 1024]
//	         [-assign-max-batch 256] [-assign-max-queue N]
//	         [-assign-max-inflight 1024] [-assign-rps 0]
//	         [-supervisor-max-pending 32]
//	         [-supervisor-drift 0.25] [-supervisor-interval 5s]
//	         [-read-timeout 2m] [-write-timeout 1m]
//	         [-idle-timeout 2m] [-log-format text|json] [-log-level info]
//	         [-replica-of URL] [-sync-interval 2s]
//	         [-max-traces 256] [-trace-slow 1s] [-pprof-addr ""]
//
// With -data-dir, fitted state is durable: every finished fit's model
// snapshot and job record are written crash-safely under DIR before the job
// reports done, and a restarted daemon — including one killed with SIGKILL —
// recovers and serves them again. Without it the daemon is memory-only.
//
// Uploaded networks keep evolving in place through the streaming mutation
// API (POST /v1/networks/{id}/edges, POST /v1/networks/{id}/objects, PATCH
// /v1/networks/{id}/attributes): each mutation is appended to a crash-safe
// per-network delta log (replayed on restart with -data-dir) and published
// as a new immutable view generation, so in-flight fits and assigns are
// never disturbed. A background supervisor watches every mutated network
// and auto-refits it — warm-started from the previous model — when the
// uncovered mutation count reaches -supervisor-max-pending or the fold-in
// drift estimate crosses -supervisor-drift, re-evaluating every
// -supervisor-interval; GET /v1/networks/{id}/supervisor reports its
// progress.
//
// Registered models serve online inference via POST
// /v1/models/{id}/assign: batches of new objects fold into a model's
// hidden space without refitting. Each request runs its own inference pass
// under the model's engine lock. -assign-max-batch caps a single request's
// batch. Admission control sheds overload with typed 429 responses (code
// client.CodeOverloaded): -assign-max-queue bounds the query objects
// waiting for one model's engine, -assign-max-inflight caps concurrent
// assign requests globally, and -assign-rps adds an optional token-bucket
// rate limit.
//
// With -replica-of URL the daemon runs as a read-only replica of another
// genclusd: a sync loop mirrors the primary's /v1/models registry by
// snapshot digest (pulling only changed models over /v1/models/{id}/export,
// verified against the advertised SHA-256 before install), /assign and
// every read endpoint serve from the synced registry, and mutating routes
// answer a typed 403 (client.CodeReadOnlyReplica). -sync-interval sets the
// pull cadence; GET /v1/replication, /healthz and /metrics expose sync lag
// and counters. Combine with -data-dir so a restarted replica resumes from
// its persisted registry instead of re-downloading everything.
//
// GET /metrics serves the full operational instrument inventory in the
// Prometheus text format (see docs/ARCHITECTURE.md, "Operations"),
// including Go runtime telemetry (goroutines, heap, GC), and structured
// logs (slog; -log-format, -log-level) carry per-request and per-job IDs.
//
// Every request is traced: an inbound W3C traceparent header continues the
// caller's trace, the trace id doubles as the request id in logs and error
// bodies, and completed traces — requests, fits with per-iteration
// timelines, supervisor decisions, replica sync passes — are browsable on
// GET /v1/traces (ring bounded by -max-traces) and GET /v1/traces/{id};
// GET /v1/jobs/{id}/trace serves a fit's timeline live. Requests slower
// than -trace-slow are promoted to Warn-level log lines. -pprof-addr
// starts the Go pprof profiling listener on a SEPARATE address (off by
// default; never mounted on the serving mux — bind it to localhost or an
// internal interface only).
//
// The genclus/client package is the typed Go SDK for this daemon; see
// README.md for it and for the raw HTTP API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"genclus/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "concurrent fit workers (default: number of CPUs)")
		queue     = flag.Int("queue", 64, "job queue depth (submissions beyond it get 503)")
		ttl       = flag.Duration("ttl", time.Hour, "evict finished jobs and idle networks after this long")
		maxBody   = flag.Int64("max-body", 32<<20, "maximum request body size in bytes")
		dataDir   = flag.String("data-dir", "", "persist finished fits (model snapshots + job records) under this directory; empty = memory-only")
		maxModels = flag.Int("max-models", 0, "cap on registered models; oldest evicted beyond it (default 1024)")

		assignMaxBatch = flag.Int("assign-max-batch", 0, "cap on query objects per assign request (default 256)")
		assignMaxQueue = flag.Int("assign-max-queue", 0, "cap on query objects waiting for one model's engine; overflow is shed with 429 (default 4x assign-max-batch, -1 unbounded)")
		assignInFlight = flag.Int("assign-max-inflight", 0, "global cap on concurrent assign requests; overflow is shed with 429 (default 1024, -1 unbounded)")
		assignRPS      = flag.Float64("assign-rps", 0, "token-bucket rate limit on assign admissions, requests per second (0 disables)")
		assignBurst    = flag.Int("assign-burst", 0, "token-bucket burst for -assign-rps (default: assign-rps rounded up)")
		supPending     = flag.Int("supervisor-max-pending", 0, "mutations a network may accumulate before the supervisor auto-refits it (default 32, -1 disables the pending trigger)")
		supDrift       = flag.Float64("supervisor-drift", 0, "fold-in drift score in [0,1] beyond which the supervisor auto-refits a mutated network (default 0.25, -1 disables the drift trigger)")
		supInterval    = flag.Duration("supervisor-interval", 0, "how often the supervisor re-evaluates drift and pending depth on mutated networks (default 5s)")
		replicaOf      = flag.String("replica-of", "", "run as a read-only replica of the given primary base URL (e.g. http://primary:8080): sync its model registry, serve /assign, refuse writes with 403")
		syncInterval   = flag.Duration("sync-interval", 0, "pause between successful replica sync passes (default 2s; only with -replica-of)")
		readTimeout    = flag.Duration("read-timeout", 2*time.Minute, "http.Server ReadTimeout: full-request read budget (0 disables)")
		writeTimeout   = flag.Duration("write-timeout", time.Minute, "per-request write deadline on non-streaming routes; SSE event streams are exempt (0 disables)")
		idleTimeout    = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections (0 disables)")
		logFormat      = flag.String("log-format", "text", "structured log encoding: text or json")
		logLevelFlag   = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error (per-request lines are debug)")
		maxTraces      = flag.Int("max-traces", 0, "completed request/job traces retained in memory for GET /v1/traces (default 256)")
		traceSlow      = flag.Duration("trace-slow", time.Second, "promote requests slower than this to Warn-level logs with their trace id (0 disables)")
		pprofAddr      = flag.String("pprof-addr", "", "serve Go pprof profiling on this SEPARATE address (e.g. localhost:6060); empty = off, never exposed on the main listener")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevelFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "genclusd: %v\n", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	wt := *writeTimeout
	if wt == 0 {
		wt = -1 // explicit 0s: no write deadline (Config treats negative as disabled)
	}
	ts := *traceSlow
	if ts == 0 {
		ts = -1 // explicit 0s: no slow-request promotion (Config treats negative as disabled)
	}

	srv, err := server.New(server.Config{
		Workers:                  *workers,
		QueueDepth:               *queue,
		JobTTL:                   *ttl,
		MaxBodyBytes:             *maxBody,
		DataDir:                  *dataDir,
		MaxModels:                *maxModels,
		MaxAssignBatch:           *assignMaxBatch,
		MaxAssignQueue:           *assignMaxQueue,
		MaxAssignInFlight:        *assignInFlight,
		AssignRPS:                *assignRPS,
		AssignBurst:              *assignBurst,
		SupervisorMaxPending:     *supPending,
		SupervisorDriftThreshold: *supDrift,
		SupervisorInterval:       *supInterval,
		ReplicaOf:                *replicaOf,
		SyncInterval:             *syncInterval,
		WriteTimeout:             wt,
		MaxTraces:                *maxTraces,
		TraceSlow:                ts,
		Logger:                   logger,
	})
	if err != nil {
		logger.Error("startup failed", "error", err)
		os.Exit(1)
	}
	if *dataDir != "" {
		rec := srv.Recovered()
		logger.Info("data dir recovered",
			"dir", *dataDir,
			"models", rec.Models,
			"jobs", rec.Jobs,
			"networks", rec.Networks,
			"mutations", rec.Mutations,
			"skipped", rec.SkippedBlobs,
			"orphans", rec.OrphanRecords,
		)
	}

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// ReadHeaderTimeout alone left slow-body clients unbounded; the
		// read and idle timeouts close them out, and the per-route write
		// deadline (server.Config.WriteTimeout) covers the response side —
		// http.Server.WriteTimeout itself would kill SSE streams, so it
		// stays unset on purpose.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}
	// End live SSE streams as soon as a graceful shutdown starts —
	// otherwise an attached events consumer holds Shutdown open for its
	// whole timeout.
	httpSrv.RegisterOnShutdown(srv.DrainStreams)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	// The pprof listener is its own server on its own address, never a route
	// on the serving mux: profiling endpoints leak heap contents and must
	// not ride the API's exposure. A pprof failure is logged, not fatal —
	// the daemon serves fine without its profiler.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		pprofSrv = &http.Server{Addr: *pprofAddr, Handler: pprofMux(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("pprof listener failed", "error", err)
			}
		}()
	}

	select {
	case err := <-errc:
		srv.Close()
		logger.Error("server failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("shutdown incomplete", "error", err)
	}
	if pprofSrv != nil {
		_ = pprofSrv.Shutdown(shutdownCtx)
	}
	srv.Close() // aborts running fits and waits for workers to exit
}

// pprofMux builds an explicit mux for the profiling endpoints instead of
// importing net/http/pprof for its DefaultServeMux side effects — the API
// mux must never accidentally inherit them.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// buildLogger assembles the process logger from the -log-format and
// -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}
