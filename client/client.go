// Package client is the typed Go SDK for genclusd, the GenClus clustering
// service. It covers every /v1 endpoint — network upload, job submission
// (including warm starts from a prior job), status, result, cancellation,
// the live progress event stream — plus /healthz, with context support and
// bounded retry/backoff on transient failures.
//
//	c := client.New("http://localhost:8080")
//	net, _ := c.UploadNetwork(ctx, myNetwork)
//	job, _ := c.SubmitJob(ctx, client.JobSpec{NetworkID: net.ID, K: 4})
//	res, err := c.WaitForResult(ctx, job.ID)
//
// The /v1 surface is additive-only until a /v2, so a client built against
// this package keeps working as the server grows new fields (see README,
// "API compatibility").
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"genclus"
	"genclus/internal/infer"
)

// Client talks to one genclusd base URL. The zero value is not usable;
// construct with New. Client is safe for concurrent use.
type Client struct {
	baseURL      string
	hc           *http.Client
	maxRetries   int
	retryBase    time.Duration
	pollInterval time.Duration
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (default:
// http.DefaultClient). Streaming endpoints need a client without a global
// Timeout; use per-call contexts for deadlines instead.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets the retry budget for transient failures (network errors
// and 502/503/504 responses): up to n retries with exponential backoff
// starting at base. Defaults: 3 retries from 100ms. WithRetries(0, 0)
// disables retrying.
func WithRetries(n int, base time.Duration) Option {
	return func(c *Client) {
		c.maxRetries = n
		c.retryBase = base
	}
}

// WithPollInterval sets the status poll cadence WaitForResult falls back to
// when the event stream is unavailable (default 250ms).
func WithPollInterval(d time.Duration) Option { return func(c *Client) { c.pollInterval = d } }

// New returns a Client for the given base URL (e.g. "http://localhost:8080").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		baseURL:      strings.TrimRight(baseURL, "/"),
		hc:           http.DefaultClient,
		maxRetries:   3,
		retryBase:    100 * time.Millisecond,
		pollInterval: 250 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx response from the service, carrying the HTTP
// status, the server's error message, and — when the server set one — its
// machine-readable error code. Its JSON form is the service's error body,
// {"error", "code", "request_id"}, which genclusd writes from this type.
type APIError struct {
	StatusCode int    `json:"-"`              // HTTP status the service answered with
	Message    string `json:"error"`          // server-side error description
	Code       string `json:"code,omitempty"` // machine-readable condition (one of the Code constants), "" when unset
	// RequestID is the server-assigned id of the failed request — its trace
	// id. Quote it in bug reports; the server resolves it on GET
	// /v1/traces/{id} while the trace is retained. "" from servers (or
	// proxies) that sent none.
	RequestID string `json:"request_id,omitempty"`
	// RetryAfter is the server's Retry-After hint on 429 responses (zero
	// when the server sent none); retries honor it over the exponential
	// backoff when it is longer.
	RetryAfter time.Duration `json:"-"`
}

// The machine-readable error codes the service sets on APIError.Code, for
// conditions a client should distinguish programmatically.
const (
	// CodeJobEvicted marks a 404 for a job that existed but outlived its
	// TTL, as opposed to never having existed (ErrJobEvicted).
	CodeJobEvicted = "job_evicted"
	// CodeOverloaded marks a 429 from assign admission control: the
	// request was shed before any work happened (ErrOverloaded).
	CodeOverloaded = "overloaded"
	// CodeReadOnlyReplica marks a 403 from a mutating route on a read-only
	// replica (ErrReadOnlyReplica).
	CodeReadOnlyReplica = "read_only_replica"
)

// Error implements the error interface. The server's request id, when
// present, rides along so any logged error is traceable server-side.
func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("genclusd: %d: %s (request_id %s)", e.StatusCode, e.Message, e.RequestID)
	}
	return fmt.Sprintf("genclusd: %d: %s", e.StatusCode, e.Message)
}

// Is routes errors.Is through the server's error code, so a 404 on a
// TTL-evicted job matches ErrJobEvicted while a never-existed job does
// not, and a 429 from assign admission control matches ErrOverloaded. A
// gateway-ish status (502/503/504) matches ErrUnavailable — the same
// signal a connection-level failure raises — so failover logic needs only
// one errors.Is test, and a 403 in replica read-only mode matches
// ErrReadOnlyReplica.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrJobEvicted:
		return e.Code == CodeJobEvicted
	case ErrOverloaded:
		return e.Code == CodeOverloaded
	case ErrReadOnlyReplica:
		return e.Code == CodeReadOnlyReplica
	case ErrUnavailable:
		switch e.StatusCode {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
	}
	return false
}

// ErrOverloaded reports that the service shed the request under load (a
// full assign queue, the global in-flight cap, or the configured rate
// limit) with a 429. Idempotent requests retry automatically, honoring the
// server's Retry-After; test with errors.Is — the concrete error remains
// an *APIError carrying the server message and RetryAfter.
var ErrOverloaded = errors.New("genclusd: overloaded, retry later")

// ErrReadOnlyReplica reports a write sent to a read-only replica (a
// genclusd running with -replica-of): the server answered 403 with
// CodeReadOnlyReplica. Route the request to the primary instead — a
// MultiEndpoint does so automatically. Test with errors.Is; the concrete
// error remains an *APIError with the full server message.
var ErrReadOnlyReplica = errors.New("genclusd: read-only replica, send writes to the primary")

// ErrJobEvicted reports that a job existed but was evicted after its TTL —
// its result is gone from the job table, though the fitted model usually
// survives in the /v1/models registry (finished fits register one
// automatically; see Job.ModelID). Test with errors.Is; the concrete error
// remains an *APIError with the full server message. The server's eviction
// tombstones are process-local, so after a restart an evicted job id
// answers a plain 404 — hold on to the model id, not the job id, across
// restarts.
var ErrJobEvicted = errors.New("genclusd: job evicted after TTL")

// ErrUnavailable reports that an endpoint could not serve the request at
// the transport or gateway level: the connection was refused, reset, or
// dropped before an HTTP status arrived, or the response was a 502/503/504.
// Test with errors.Is — the concrete error remains a *transportError
// wrapping the net-level cause, or an *APIError for gateway statuses. It is
// the signal MultiEndpoint failover keys off: an endpoint answering this
// way is quarantined and traffic moves on, while typed application errors
// (404, 409, 4xx) are returned as-is.
var ErrUnavailable = errors.New("genclusd: endpoint unavailable")

// transportError wraps a request that failed before any HTTP status
// arrived, so errors.Is(err, ErrUnavailable) holds while the underlying
// cause (including context cancellation) stays reachable via Unwrap. The
// cause is a *url.Error, which already names the method and URL.
type transportError struct {
	err error
}

// Error implements the error interface.
func (e *transportError) Error() string { return "client: " + e.err.Error() }

// Unwrap exposes the net-level cause for errors.Is/As chains.
func (e *transportError) Unwrap() error { return e.err }

// Is marks every transport-level failure as ErrUnavailable — except
// context cancellations, which are the caller's own doing, not the
// endpoint's.
func (e *transportError) Is(target error) bool {
	if target != ErrUnavailable {
		return false
	}
	return !errors.Is(e.err, context.Canceled) && !errors.Is(e.err, context.DeadlineExceeded)
}

// IsNotFound reports whether err is an APIError with status 404 — an
// unknown (or TTL-evicted) network, job, or model.
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusNotFound
}

// JobState is a job's lifecycle state as reported by the service.
type JobState string

// Job lifecycle states.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// NetworkInfo describes an uploaded network.
type NetworkInfo struct {
	ID         string   `json:"id"`         // server-side network id for job submissions
	Objects    int      `json:"objects"`    // |V|
	Links      int      `json:"links"`      // |E|
	Relations  []string `json:"relations"`  // relation names in dense-id order
	Attributes []string `json:"attributes"` // declared attribute names
}

// JobOptions overlays the paper-default fit options; nil fields keep the
// defaults. genclusd decodes the options object of a submission into this
// type, so the SDK and the service cannot disagree on a field.
type JobOptions struct {
	Attributes           []string `json:"attributes,omitempty"`            // attribute subset defining the clustering purpose (empty = all)
	OuterIters           *int     `json:"outer_iters,omitempty"`           // outer alternations between EM and strength learning
	EMIters              *int     `json:"em_iters,omitempty"`              // EM iterations per cluster-optimization step
	EMTol                *float64 `json:"em_tol,omitempty"`                // early-stop threshold on max |ΔΘ|
	OuterTol             *float64 `json:"outer_tol,omitempty"`             // early-stop threshold on max |Δγ|
	NewtonIters          *int     `json:"newton_iters,omitempty"`          // Newton iterations per strength-learning step
	PriorSigma           *float64 `json:"prior_sigma,omitempty"`           // σ of the Gaussian prior on γ
	Seed                 *int64   `json:"seed,omitempty"`                  // RNG seed; same seed ⇒ bitwise identical fit
	InitSeeds            *int     `json:"init_seeds,omitempty"`            // best-of-seeds restarts (>1 enables seeding)
	InitSeedSteps        *int     `json:"init_seed_steps,omitempty"`       // EM steps per candidate seed
	Parallelism          *int     `json:"parallelism,omitempty"`           // fit worker count (does not change results)
	LearnGamma           *bool    `json:"learn_gamma,omitempty"`           // false freezes γ at the initial vector
	InitialGamma         *float64 `json:"initial_gamma,omitempty"`         // uniform starting strength (0 means 1)
	SymmetricPropagation *bool    `json:"symmetric_propagation,omitempty"` // propagate along in-links too (ablation)
	Epsilon              *float64 `json:"epsilon,omitempty"`               // Θ floor, in (0, 1/K); also floors assign posteriors
	Precision            *string  `json:"precision,omitempty"`             // model storage precision: "float64" (default) or "float32"
}

// JobSpec is a fit submission (the POST /v1/jobs body). K is required
// unless WarmStartFrom names a finished job (or WarmStartFromModel a
// registered model), in which case K defaults to (and must match) that
// fit's K. Truth maps object IDs to ground-truth labels and enables
// NMI/ARI/purity on the result.
type JobSpec struct {
	NetworkID     string         `json:"network_id"`                // id from UploadNetwork
	K             int            `json:"k"`                         // number of clusters
	Options       *JobOptions    `json:"options,omitempty"`         // nil keeps every default
	Truth         map[string]int `json:"truth,omitempty"`           // object id → ground-truth label
	WarmStartFrom string         `json:"warm_start_from,omitempty"` // finished job id to warm-start from
	// WarmStartFromModel names a registry model to warm-start from instead
	// of a job — models never expire, so this is the handle for refitting
	// an evolved network against a snapshot across restarts and deploys.
	// Mutually exclusive with WarmStartFrom.
	WarmStartFromModel string `json:"warm_start_from_model,omitempty"`
}

// Progress is a fit progress report: completed outer iterations out of the
// configured budget (the fit may stop earlier on convergence). Objective
// and EMIterations are also span attributes on the job's trace; here they
// stream without polling /v1/jobs/{id}/trace.
type Progress struct {
	Outer      int `json:"outer"`       // completed outer iterations (0 = initialized)
	OuterTotal int `json:"outer_total"` // configured outer-iteration budget
	// Objective is g₁ (Eq. 9) after the reported iteration.
	Objective float64 `json:"objective,omitempty"`
	// EMIterations is the fit's running total of EM iterations, including
	// the best-of-seeds candidate runs.
	EMIterations int `json:"em_iterations,omitempty"`
}

// Job is a job's status.
type Job struct {
	ID        string    `json:"id"`                 // job id
	NetworkID string    `json:"network_id"`         // network the job fits
	State     JobState  `json:"state"`              // lifecycle state
	Progress  *Progress `json:"progress,omitempty"` // latest progress report, if any
	Error     string    `json:"error,omitempty"`    // failure reason (state "failed" only)
	// ModelID is the registry model the finished fit was published as
	// (state "done" only): the handle for /v1/models and
	// WarmStartFromModel.
	ModelID string `json:"model_id,omitempty"`
	// TraceID is the fit's 32-hex trace id: when the submission carried a
	// traceparent (WithTraceparent) it equals that trace's id, and GET
	// /v1/jobs/{id}/trace serves the fit's span timeline under it. Empty
	// for jobs recovered from disk after a restart.
	TraceID  string `json:"trace_id,omitempty"`
	Created  string `json:"created"`            // RFC 3339 submission time
	Started  string `json:"started,omitempty"`  // RFC 3339 fit start time
	Finished string `json:"finished,omitempty"` // RFC 3339 terminal time
}

// ObjectResult is one clustered object: its hard assignment and soft
// membership row.
type ObjectResult struct {
	ID      string    `json:"id"`      // object id from the uploaded network
	Type    string    `json:"type"`    // object type (τ)
	Cluster int       `json:"cluster"` // argmax hard assignment
	Theta   []float64 `json:"theta"`   // soft membership row (sums to 1)
}

// Metrics are the eval scores against submitted ground truth.
type Metrics struct {
	NMI     float64 `json:"nmi"`             // normalized mutual information
	ARI     float64 `json:"ari"`             // adjusted Rand index
	Purity  float64 `json:"purity"`          // majority-class purity
	Labeled int     `json:"labeled_objects"` // objects the truth map covered
}

// Result is a finished job's fitted model.
type Result struct {
	ID              string             `json:"id"`                // job id
	K               int                `json:"k"`                 // number of clusters
	Objects         []ObjectResult     `json:"objects"`           // per-object assignments and memberships
	Gamma           map[string]float64 `json:"gamma"`             // relation name → learned strength γ(r)
	Objective       float64            `json:"objective"`         // final g₁ (Eq. 9)
	PseudoLL        float64            `json:"pseudo_ll"`         // final g′₂ (Eq. 14)
	EMIterations    int                `json:"em_iterations"`     // total EM iterations executed (a warm start shows far fewer)
	OuterIterations int                `json:"outer_iterations"`  // outer alternations actually run
	Metrics         *Metrics           `json:"metrics,omitempty"` // eval vs submitted truth, if any
}

// Model rebuilds a local genclus.Model from the fetched result, so a fit
// computed by the service can seed a local Model.Refit. The service result
// carries Θ (per object) and γ but not the fitted attribute component
// models, so a refit from the rebuilt model warm-starts memberships and
// strengths while re-initializing attribute models from the data — still a
// fraction of a cold start on a converged source fit.
func (r *Result) Model() (*genclus.Model, error) {
	theta := make([][]float64, len(r.Objects))
	ids := make([]string, len(r.Objects))
	for i, o := range r.Objects {
		theta[i] = o.Theta
		ids[i] = o.ID
	}
	res := &genclus.Result{
		K:               r.K,
		Theta:           theta,
		Gamma:           r.Gamma,
		Objective:       r.Objective,
		PseudoLL:        r.PseudoLL,
		EMIterations:    r.EMIterations,
		OuterIterations: r.OuterIterations,
	}
	return genclus.NewModel(res, ids)
}

// Health is the service's liveness report (the /healthz body).
type Health struct {
	Status        string         `json:"status"`         // "ok" while serving
	UptimeSeconds float64        `json:"uptime_seconds"` // seconds since start
	Workers       int            `json:"workers"`        // fit worker pool size
	Networks      int            `json:"networks"`       // stored (non-evicted) networks
	Models        int            `json:"models"`         // registered models
	Jobs          map[string]int `json:"jobs"`           // job count per state
	// PersistFailures counts fits whose snapshot or record failed to reach
	// the server's data dir (served memory-only until restart); nonzero
	// means durability is degraded — check the volume and the server logs.
	PersistFailures int64 `json:"persist_failures"`
	// Assign surfaces the server's online-inference counters: assign
	// request/object volume, engine passes, and engine cache
	// effectiveness.
	Assign AssignStats `json:"assign"`
	// Mutation surfaces the server's streaming-mutation counters: mutation
	// volume, delta-log depth, live supervisors, and auto-refit totals.
	Mutation MutationStats `json:"mutation"`
	// Replication surfaces replica-mode sync state (zero, with Active
	// false, on a primary).
	Replication ReplicationStats `json:"replication"`
	// Runtime surfaces Go runtime telemetry: goroutines, heap size and
	// cumulative GC work.
	Runtime RuntimeStats `json:"runtime"`
}

// RuntimeStats is the /healthz runtime block. Each field is also a
// /metrics gauge (genclus_goroutines, genclus_heap_alloc_bytes,
// genclus_gc_pause_total_seconds, genclus_gc_cycles_total), and both are
// read from one sample the server refreshes at most every 250 ms.
type RuntimeStats struct {
	Goroutines          int     `json:"goroutines"`             // live goroutines
	HeapAllocBytes      uint64  `json:"heap_alloc_bytes"`       // bytes of live heap objects
	GCPauseTotalSeconds float64 `json:"gc_pause_total_seconds"` // cumulative stop-the-world GC pause
	GCCycles            uint32  `json:"gc_cycles"`              // completed GC cycles
}

// ModelInfo is one registry entry of the /v1/models API: identity and
// provenance of a fitted (or imported) model whose full state lives in the
// binary snapshot behind ExportModel.
type ModelInfo struct {
	ID            string `json:"id"`                       // model id
	K             int    `json:"k"`                        // number of clusters
	Objects       int    `json:"objects"`                  // Θ rows (clustered objects)
	JobID         string `json:"job_id,omitempty"`         // source job (fitted models only)
	NetworkID     string `json:"network_id,omitempty"`     // source network (fitted models only)
	Created       string `json:"created"`                  // RFC 3339 registration time
	Digest        string `json:"digest"`                   // hex SHA-256 of the snapshot bytes
	SizeBytes     int64  `json:"size_bytes"`               // snapshot length
	OptionsDigest string `json:"options_digest,omitempty"` // digest of the fit's scalar hyperparameters
	EMIterations  int    `json:"em_iterations"`            // EM work the source fit spent
	Precision     string `json:"precision"`                // model storage precision ("float64" or "float32")
}

// modelList is the GET /v1/models wire wrapper.
type modelList struct {
	Models []ModelInfo `json:"models"`
}

// UploadNetwork serializes and uploads a network, returning its server-side
// ID for job submissions.
func (c *Client) UploadNetwork(ctx context.Context, net *genclus.Network) (*NetworkInfo, error) {
	data, err := json.Marshal(net)
	if err != nil {
		return nil, fmt.Errorf("client: encode network: %w", err)
	}
	return c.UploadNetworkJSON(ctx, data)
}

// UploadNetworkJSON uploads an already-serialized network document (the
// format written by Network.SaveFile / cmd/datagen).
func (c *Client) UploadNetworkJSON(ctx context.Context, data []byte) (*NetworkInfo, error) {
	var out NetworkInfo
	// An upload is not idempotent from the server's perspective (each
	// attempt registers a new network), but retrying after a transient
	// failure only risks an orphaned upload that the TTL sweeper collects.
	if err := c.do(ctx, http.MethodPost, "/v1/networks", data, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SubmitJob submits a fit. Submission is NOT retried: a retry after an
// ambiguous failure could double-schedule the fit. Callers who want
// resilience should check for the job by listing health or resubmit
// explicitly.
func (c *Client) SubmitJob(ctx context.Context, spec JobSpec) (*Job, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("client: encode job spec: %w", err)
	}
	var out Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", payload, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// JobStatus fetches a job's current state and progress.
func (c *Client) JobStatus(ctx context.Context, jobID string) (*Job, error) {
	var out Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+jobID, nil, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// JobResult fetches a finished job's fitted model. The service answers 409
// while the job is still queued or running; use WaitForResult to block
// until it is done.
func (c *Client) JobResult(ctx context.Context, jobID string) (*Result, error) {
	var out Result
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+jobID+"/result", nil, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CancelJob cancels a queued or running job (idempotent: cancelling a
// terminal job is a no-op) and returns the resulting status.
func (c *Client) CancelJob(ctx context.Context, jobID string) (*Job, error) {
	var out Job
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+jobID, nil, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health fetches the service's liveness and queue statistics.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var out Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ListModels fetches the model registry, newest first. Every finished fit
// registers a model automatically (see Job.ModelID); imported snapshots
// join the same registry. Models never TTL-expire.
func (c *Client) ListModels(ctx context.Context) ([]ModelInfo, error) {
	var out modelList
	if err := c.do(ctx, http.MethodGet, "/v1/models", nil, true, &out); err != nil {
		return nil, err
	}
	return out.Models, nil
}

// GetModel fetches one registry entry.
func (c *Client) GetModel(ctx context.Context, modelID string) (*ModelInfo, error) {
	var out ModelInfo
	if err := c.do(ctx, http.MethodGet, "/v1/models/"+modelID, nil, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteModel removes a model from the registry (and, on a persistent
// server, from disk).
func (c *Client) DeleteModel(ctx context.Context, modelID string) error {
	return c.do(ctx, http.MethodDelete, "/v1/models/"+modelID, nil, true, nil)
}

// ExportModel downloads the model's binary snapshot — the portable form of
// a fitted model: import it into another genclusd (ImportModel), load it in
// the genclus CLI (-from-model), or decode it locally with
// genclus.DecodeModel to drive a local Refit. The bytes are deterministic
// for a given model; their SHA-256 is the registry entry's Digest.
func (c *Client) ExportModel(ctx context.Context, modelID string) ([]byte, error) {
	return c.doRaw(ctx, http.MethodGet, "/v1/models/"+modelID+"/export", nil, "", true)
}

// ImportModel registers a binary model snapshot (bytes from ExportModel,
// genclus.EncodeModel, or the CLI's -save-model) and returns the new
// registry entry. The server only accepts canonical snapshot encodings, so
// a later ExportModel of the entry returns these exact bytes.
func (c *Client) ImportModel(ctx context.Context, data []byte) (*ModelInfo, error) {
	// Import is not retried: a retry after an ambiguous failure could
	// register the snapshot twice (same digest, two ids).
	body, err := c.doRaw(ctx, http.MethodPost, "/v1/models/import", data, "application/octet-stream", false)
	if err != nil {
		return nil, err
	}
	var out ModelInfo
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("client: decode import response: %w", err)
	}
	return &out, nil
}

// JobError reports a job that reached a terminal state other than done.
type JobError struct {
	JobID   string   // the job that terminated
	State   JobState // its terminal state (failed or cancelled)
	Message string   // server-side failure reason, if any
}

// Error implements the error interface.
func (e *JobError) Error() string {
	return fmt.Sprintf("genclusd: job %s %s: %s", e.JobID, e.State, e.Message)
}

// WaitForResult blocks until the job reaches a terminal state and returns
// its result. It consumes the live event stream when the server provides
// one and degrades to status polling otherwise; either way it returns as
// soon as ctx is cancelled. A failed or cancelled job surfaces as a
// *JobError.
func (c *Client) WaitForResult(ctx context.Context, jobID string) (*Result, error) {
	final, err := c.waitTerminal(ctx, jobID)
	if err != nil {
		return nil, err
	}
	if final.State != StateDone {
		return nil, &JobError{JobID: jobID, State: final.State, Message: final.Error}
	}
	return c.JobResult(ctx, jobID)
}

// waitTerminal blocks until the job's state is terminal, preferring the
// event stream over polling.
func (c *Client) waitTerminal(ctx context.Context, jobID string) (*Job, error) {
	var final *Job
	err := c.StreamEvents(ctx, jobID, func(ev Event) error {
		if ev.Job != nil && ev.Job.State.Terminal() {
			final = ev.Job
			return ErrStopStreaming
		}
		return nil
	})
	switch {
	case err == nil && final != nil:
		return final, nil
	case err == nil:
		// Stream ended without a terminal state (server closed early);
		// fall through to polling.
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return nil, err
	case IsNotFound(err):
		// Ambiguous: the job may be unknown, or the server may predate the
		// /events endpoint (the /v1 surface is additive-only, so both are
		// in-policy). One status request disambiguates.
		job, serr := c.JobStatus(ctx, jobID)
		if serr != nil {
			return nil, serr
		}
		if job.State.Terminal() {
			return job, nil
		}
	}
	// Polling fallback: the stream failed for a reason worth surviving
	// (proxy stripped streaming, connection dropped mid-fit, older server).
	for {
		job, err := c.JobStatus(ctx, jobID)
		if err != nil {
			return nil, err
		}
		if job.State.Terminal() {
			return job, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(c.pollInterval):
		}
	}
}

// do issues one JSON API request with bounded retries on transient
// failures, decoding a 2xx body into out (when non-nil): a *Result or an
// *AssignResponse in one pass on the shared JSON scanner, anything else
// with encoding/json. Non-2xx
// responses become *APIError; only idempotent requests and transient
// statuses (502/503/504) are retried.
func (c *Client) do(ctx context.Context, method, path string, body []byte, idempotent bool, out any) error {
	contentType := ""
	if body != nil {
		contentType = "application/json"
	}
	data, err := c.doRaw(ctx, method, path, body, contentType, idempotent)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	if len(data) == 0 {
		return fmt.Errorf("client: %s %s answered an empty body, want a document", method, path)
	}
	switch v := out.(type) {
	case *Result:
		err = decodeResult(data, v)
	case *AssignResponse:
		err = infer.DecodeResponse(data, v)
	default:
		err = json.Unmarshal(data, out)
	}
	if err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// doRaw issues one request with bounded retries and returns the raw 2xx
// body — the byte-level transport shared by the JSON surface and the
// binary snapshot endpoints. The traceparent is chosen once, before the
// retry loop, so every attempt of one logical call shares a single trace;
// when retries are exhausted the final error says how many attempts were
// made and which trace id to look up, so retrying is never silent.
func (c *Client) doRaw(ctx context.Context, method, path string, body []byte, contentType string, idempotent bool) ([]byte, error) {
	tp := callTraceparent(ctx)
	var lastErr error
	for attempt := 0; ; attempt++ {
		data, err := c.once(ctx, method, path, body, contentType, tp)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !idempotent || attempt >= c.maxRetries || !transient(err) || ctx.Err() != nil {
			if attempt > 0 {
				// %w keeps errors.Is/As (APIError, ErrUnavailable, ...) intact.
				return nil, fmt.Errorf("%w (after %d attempts, trace %s)", lastErr, attempt+1, TraceIDOf(tp))
			}
			return nil, lastErr
		}
		// Cap the exponent so a generous retry budget cannot overflow
		// time.Duration into an instant-retry hot loop.
		shift := attempt
		if shift > 16 {
			shift = 16
		}
		wait := c.retryBase << shift
		// A shed request (429) carries the server's own backoff hint;
		// retrying sooner than it asks just gets shed again.
		var ae *APIError
		if errors.As(err, &ae) && ae.RetryAfter > wait {
			wait = ae.RetryAfter
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(wait):
		}
	}
}

// once issues a single HTTP request and maps non-2xx to *APIError.
func (c *Client) once(ctx context.Context, method, path string, body []byte, contentType, traceparent string) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
	if err != nil {
		return nil, fmt.Errorf("client: build request: %w", err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, &transportError{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// A connection severed mid-body (a crashed or restarted server) is
		// as much a transport failure as a refused dial; keep it typed so
		// retry and endpoint failover recognize it.
		return nil, &transportError{err: &url.Error{Op: "read body of " + method, URL: req.URL.String(), Err: err}}
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		ae := apiError(resp.StatusCode, data)
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
		return nil, ae
	}
	return data, nil
}

// apiError builds the *APIError for a non-2xx response from the server's
// error body, falling back to the raw text for non-JSON errors (proxies,
// older servers).
func apiError(status int, body []byte) *APIError {
	ae := &APIError{}
	if err := json.Unmarshal(body, ae); err != nil || ae.Message == "" {
		ae = &APIError{Message: strings.TrimSpace(string(body))}
	}
	ae.StatusCode = status
	return ae
}

// transient reports whether an error is worth retrying: anything
// ErrUnavailable covers (network-level failures and gateway-ish statuses,
// but never a context cancellation) plus 429s shed by admission control.
func transient(err error) bool {
	if errors.Is(err, ErrUnavailable) {
		return true
	}
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusTooManyRequests
}
