package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"genclus/internal/infer"
	"genclus/internal/snapshot"
)

// Online inference: POST /v1/models/{id}/assign folds batches of new
// objects — links into the model's known network plus optional partial
// attribute observations — into a registered model's hidden space without
// refitting. Per model the server keeps one inference engine (cached by
// snapshot digest, so re-imports and restarts reuse the same derived
// views) behind a batch-while-busy dispatcher: a request that finds the
// model idle starts its engine pass at once, and requests that arrive while
// a pass is running queue up and share the next pass, in groups of up to
// Config.MaxAssignBatch objects. Batch size therefore follows arrival rate
// × pass time — coalescing under concurrent load, no latency floor when
// idle — while every request's results stay isolated. The engine pass
// itself is deterministic and allocation-free in steady state (see
// internal/infer), so an assignment never depends on its batch companions.

// ---- wire types ----
//
// Both document shapes are owned by internal/infer — RequestDoc decoded
// by infer.DecodeRequest, AssignmentDoc produced by infer.AssignmentDocs
// — so the daemon and the CLI's offline -assign mode speak byte-for-byte
// the same format; only the endpoint envelope lives here.

// assignResponse is the endpoint's reply.
type assignResponse struct {
	ModelID     string                `json:"model_id"`
	K           int                   `json:"k"`
	Assignments []infer.AssignmentDoc `json:"assignments"`
	// Batched reports whether this request shared its engine pass with at
	// least one concurrent request (micro-batching visibility for clients
	// tuning their own batch sizes).
	Batched bool `json:"batched"`
}

// assignStatsResponse is the healthz assign block.
type assignStatsResponse struct {
	// Requests counts assign requests that reached an engine pass.
	Requests int64 `json:"requests"`
	// Objects counts query objects scored across all requests.
	Objects int64 `json:"objects"`
	// BatchedRequests counts requests whose engine pass was shared with at
	// least one other concurrent request; BatchedRequests/Requests is the
	// micro-batching coalescing ratio.
	BatchedRequests int64 `json:"batched_requests"`
	// EnginePasses counts shared engine passes executed.
	EnginePasses int64 `json:"engine_passes"`
	// EngineCacheHits / EngineCacheMisses count per-model engine cache
	// lookups by snapshot digest.
	EngineCacheHits   int64 `json:"engine_cache_hits"`
	EngineCacheMisses int64 `json:"engine_cache_misses"`
	// ShedRequests counts assign requests rejected with 429 "overloaded"
	// by admission control (queue bound, in-flight cap, or rate limit).
	ShedRequests int64 `json:"shed_requests"`
}

// ---- engine cache + micro-batching dispatcher ----

// assignEngines caches one dispatcher (engine + pending batch) per
// snapshot digest, LRU-evicted beyond cap: the digest identifies the
// model's canonical bytes, so a re-imported or recovered model reuses the
// same derived scoring views. Entries are reserved under the mutex but
// BUILT outside it (engine construction walks the whole model), so a cold
// build for one model never stalls assign traffic to the others;
// concurrent requests for the same digest wait on the reservation.
type assignEngines struct {
	mu      sync.Mutex
	entries map[string]*assignDispatcher
	cap     int
}

// dispatcher fetches or builds the cached dispatcher for a model entry.
func (s *Server) dispatcher(e *modelEntry) (*assignDispatcher, error) {
	c := &s.assignCache
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[string]*assignDispatcher)
	}
	if d, ok := c.entries[e.digest]; ok {
		d.lastUsed = s.cfg.now()
		c.mu.Unlock()
		s.metrics.assignCacheHits.Inc()
		<-d.ready
		if d.buildErr != nil {
			return nil, d.buildErr
		}
		return d, nil
	}
	// Reserve the digest, then build without the lock. A failed build is
	// removed so the next request retries.
	d := &assignDispatcher{
		maxBatch: s.cfg.MaxAssignBatch,
		maxQueue: s.cfg.MaxAssignQueue,
		met:      s.metrics,
		passHook: s.assignPassHook,
		lastUsed: s.cfg.now(),
		ready:    make(chan struct{}),
	}
	c.entries[e.digest] = d
	c.evictOverflowLocked()
	c.mu.Unlock()
	s.metrics.assignCacheMisses.Inc()

	eng, err := infer.NewEngine(e.model, infer.Options{
		TopK:      e.model.K,         // responses trim to the requested top_k
		Epsilon:   s.modelEpsilon(e), // the fit's own floor, when recorded
		Precision: e.precision,       // the snapshot's storage precision
		Limits: infer.Limits{
			// Coalesced passes may exceed one request's cap; per-request
			// batch size is bounded at decode (infer.DecodeRequest).
			MaxBatch:  0,
			MaxLinks:  s.cfg.MaxAssignLinks,
			MaxTerms:  s.cfg.MaxAssignObs,
			MaxValues: s.cfg.MaxAssignObs,
		},
	})
	d.eng, d.buildErr = eng, err
	close(d.ready)
	if err != nil {
		c.mu.Lock()
		if c.entries[e.digest] == d {
			delete(c.entries, e.digest)
		}
		c.mu.Unlock()
		return nil, err
	}
	// The model may have been deleted while the engine was building — its
	// dropEngine ran before our entry existed, which would pin the dead
	// model's memory in the cache. Re-run the liveness check now that the
	// entry is published.
	s.dropEngine(e.digest)
	return d, nil
}

// modelEpsilon recovers the Θ floor the model was fitted with from its
// snapshot provenance meta (recorded as an exact hex float since PR 5).
// Models without the key — imports from older snapshots, or pre-upgrade
// recoveries — fall back to the fit default by returning 0: their
// assignments are still valid posteriors, just not guaranteed to
// reproduce the training rows bit for bit when the fit used a
// non-default epsilon.
func (s *Server) modelEpsilon(e *modelEntry) float64 {
	return snapshot.EpsilonFromMeta(e.meta, e.model.K)
}

// evictOverflowLocked applies the LRU cap; callers hold c.mu.
func (c *assignEngines) evictOverflowLocked() {
	for c.cap > 0 && len(c.entries) > c.cap {
		oldestKey := ""
		var oldest time.Time
		for key, cand := range c.entries {
			if oldestKey == "" || cand.lastUsed.Before(oldest) || (cand.lastUsed.Equal(oldest) && key < oldestKey) {
				oldestKey, oldest = key, cand.lastUsed
			}
		}
		delete(c.entries, oldestKey)
	}
}

// dropEngine removes a digest's cached engine unless another live registry
// entry still shares those snapshot bytes. Model deletion and MaxModels
// eviction call it so a deleted model's memory (Θ plus the engine's
// derived views) is not pinned by the cache for the process lifetime.
func (s *Server) dropEngine(digest string) {
	if digest == "" || s.store.digestInUse(digest) {
		return
	}
	c := &s.assignCache
	c.mu.Lock()
	delete(c.entries, digest)
	c.mu.Unlock()
}

// Shed reasons — the label values of genclus_assign_shed_total and the
// vocabulary of overloadError.reason.
const (
	shedQueueFull = "queue_full"
	shedInFlight  = "in_flight"
	shedRateLimit = "rate_limit"
)

// codeOverloaded is the machine-readable error code on 429 responses from
// assign admission control; clients should back off (the response carries
// Retry-After) and retry.
const codeOverloaded = "overloaded"

// overloadError is an admission-control rejection: which limiter shed the
// request and how long the client should wait before retrying.
type overloadError struct {
	reason     string
	msg        string
	retryAfter time.Duration
}

func (e *overloadError) Error() string { return e.msg }

// recordPass accounts one engine pass of `requests` coalesced calls
// scoring `objects` query objects. The increment order is load-bearing;
// see assignStats.
func (m *serverMetrics) recordPass(requests, objects int, coalesced bool, elapsed time.Duration) {
	m.assignObjects.Add(int64(objects))
	m.assignRequests.Add(int64(requests))
	if coalesced {
		m.assignBatched.Add(int64(requests))
	}
	m.assignPasses.Inc()
	m.assignOccupancy.Observe(float64(objects))
	m.assignPassSecs.Observe(elapsed.Seconds())
}

// assignStats builds the healthz assign block from the registry counters.
// recordPass adds objects, then requests, then batched, then passes; this
// loads passes, then batched, then requests, then objects. sync/atomic
// operations are sequentially consistent, so every increment a load sees
// was preceded by the pass's earlier increments, which the later loads see
// too: every read satisfies batched ≤ requests ≤ objects and passes ≤
// requests without a lock.
func (m *serverMetrics) assignStats() assignStatsResponse {
	passes := m.assignPasses.Value()
	batched := m.assignBatched.Value()
	requests := m.assignRequests.Value()
	objects := m.assignObjects.Value()
	var shed int64
	for _, c := range m.assignShed {
		shed += c.Value()
	}
	return assignStatsResponse{
		Requests:          requests,
		Objects:           objects,
		BatchedRequests:   batched,
		EnginePasses:      passes,
		EngineCacheHits:   m.assignCacheHits.Value(),
		EngineCacheMisses: m.assignCacheMisses.Value(),
		ShedRequests:      shed,
	}
}

// tokenBucket is the optional assign admission rate limiter: rate tokens
// per second, holding at most burst. It uses the server's clock hook so
// tests can drive it deterministically.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
}

func newTokenBucket(rate float64, burst int, now func() time.Time) *tokenBucket {
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), now: now}
}

// take consumes one token if available; otherwise it reports how long
// until one accrues.
func (b *tokenBucket) take() (wait time.Duration, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.now()
	if !b.last.IsZero() {
		b.tokens += t.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = t
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	return time.Duration((1 - b.tokens) / b.rate * float64(time.Second)), false
}

// assignCall is one request's slot in a dispatcher batch.
type assignCall struct {
	queries []infer.Query
	topK    int
	out     []infer.AssignmentDoc
	batched bool
	err     error
	done    chan struct{}
}

// assignDispatcher coalesces concurrent assign requests against one model
// into shared engine passes, batching only while the engine is busy. An
// arrival that finds no pass running becomes the leader and scores at once;
// arrivals during a pass queue in pending, and the next round drains them
// in groups of at most maxBatch objects, scores each group in one engine
// pass, and distributes per-request copies of the results. No request ever
// waits for a companion. The engine — which owns a single scratch arena and
// is not concurrent-safe — only ever runs on the leader goroutine of the
// moment, so no lock is held while scoring and a slow pass never blocks
// request validation.
type assignDispatcher struct {
	eng      *infer.Engine
	maxBatch int
	// maxQueue bounds the query objects in pending (0: unbounded);
	// enqueues past it fail with a typed overloadError so the pending list
	// cannot grow without limit behind a slow pass.
	maxQueue int
	met      *serverMetrics
	// passHook, when set (tests), runs at the start of every engine pass.
	passHook func()

	// ready closes once the engine build finished (dispatcher fills eng or
	// buildErr first); cache readers that found a reserved entry wait on it.
	ready    chan struct{}
	buildErr error

	mu           sync.Mutex
	pending      []*assignCall
	queued       int // query objects across pending
	leaderActive bool

	// lastUsed drives the engine cache's LRU eviction (guarded by the
	// cache mutex, not mu).
	lastUsed time.Time
}

// do submits one request's queries and blocks until a leader scored them.
// An arrival at an idle dispatcher becomes the leader for exactly one drain
// round — its own call is in that round, so its latency is the passes of
// its round and nothing more — and hands any arrivals that landed while it
// was scoring to a detached drainer goroutine, which coalesces them. The
// engine still only ever runs on one goroutine at a time (leaderActive), it
// just stops being the goroutine of a request that already has its answer.
//
// Enqueueing past maxQueue pending query objects fails immediately with a
// typed overloadError (shed, not queued): under a wedged or slow pass the
// pending list stays bounded and clients get a fast 429 instead of a slow
// timeout against unbounded memory growth.
func (d *assignDispatcher) do(call *assignCall) error {
	call.done = make(chan struct{})
	d.mu.Lock()
	if d.maxQueue > 0 && d.queued+len(call.queries) > d.maxQueue {
		d.mu.Unlock()
		return &overloadError{
			reason:     shedQueueFull,
			msg:        fmt.Sprintf("assign queue full (%d objects pending, cap %d)", d.queued, d.maxQueue),
			retryAfter: time.Second,
		}
	}
	d.pending = append(d.pending, call)
	d.queued += len(call.queries)
	d.met.assignQueueDepth.Add(int64(len(call.queries)))
	if d.leaderActive {
		d.mu.Unlock()
		<-call.done
		return nil
	}
	d.leaderActive = true
	d.mu.Unlock()

	d.drainRound()
	<-call.done
	return nil
}

// drainRound scores everything pending in one round, then either retires
// leadership (nothing new arrived during the round — released before this
// call returns, so dispatcher state is quiescent the moment the last
// caller is answered) or hands it to a fresh goroutine for the next
// round. At most one drainer exists at any moment.
func (d *assignDispatcher) drainRound() {
	d.mu.Lock()
	batch := d.pending
	d.pending = nil
	taken := d.queued
	d.queued = 0
	d.met.assignQueueDepth.Add(int64(-taken))
	if len(batch) == 0 {
		d.leaderActive = false
		d.mu.Unlock()
		return
	}
	d.mu.Unlock()
	func() {
		// A panic in the pass must not wedge the model's assign traffic:
		// without this recover, leaderActive would stay true forever and
		// every later request would block on a leader that no longer
		// exists. Fail whatever calls the pass left unanswered and let
		// leadership move to the next round as usual.
		defer func() {
			if r := recover(); r != nil {
				err := fmt.Errorf("inference pass panicked: %v", r)
				for _, call := range batch {
					select {
					case <-call.done: // already answered before the panic
					default:
						call.err = err
						close(call.done)
					}
				}
			}
		}()
		d.runBatch(batch)
	}()
	d.mu.Lock()
	if len(d.pending) == 0 {
		d.leaderActive = false
		d.mu.Unlock()
		return
	}
	d.mu.Unlock()
	go d.drainRound()
}

// runBatch groups calls into engine passes of at most maxBatch objects
// (single calls above the cap were already rejected at decode) and scores
// each group, copying results out of the engine arena into per-call slices
// before the next pass reuses it.
func (d *assignDispatcher) runBatch(batch []*assignCall) {
	for len(batch) > 0 {
		group := batch[:1]
		total := len(batch[0].queries)
		for len(group) < len(batch) {
			next := batch[len(group)]
			if d.maxBatch > 0 && total+len(next.queries) > d.maxBatch {
				break
			}
			total += len(next.queries)
			group = append(group, next)
		}
		batch = batch[len(group):]
		d.runGroup(group, total)
	}
}

// runGroup scores one coalesced group in a single engine pass. The
// queries were already validated per request before queueing (that is
// what routes a bad query its own 4xx), so AssignBatch's internal
// re-validation is redundant here — kept deliberately: it is map lookups
// against scoring's arithmetic, and it means the arena pass can never run
// on unvalidated input no matter who calls it.
func (d *assignDispatcher) runGroup(group []*assignCall, total int) {
	flat := make([]infer.Query, 0, total)
	for _, call := range group {
		flat = append(flat, call.queries...)
	}
	if d.passHook != nil {
		d.passHook()
	}
	start := time.Now()
	out, err := d.eng.AssignBatch(flat)
	d.met.recordPass(len(group), total, len(group) > 1, time.Since(start))
	off := 0
	for _, call := range group {
		if err != nil {
			// Queries were validated per request before queueing, so an
			// engine error here is unexpected; fail every call in the pass.
			call.err = err
		} else {
			call.out = infer.AssignmentDocs(out[off:off+len(call.queries)], call.topK)
			call.batched = len(group) > 1
		}
		off += len(call.queries)
		close(call.done)
	}
}

// ---- handler ----

func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	// Admission control runs before any decoding: a shed request costs the
	// server almost nothing. Order: rate limit (policy), then the global
	// in-flight cap (protects everything below), then the per-model queue
	// bound inside do().
	if lim := s.assignLimiter; lim != nil {
		if wait, ok := lim.take(); !ok {
			s.rejectOverloaded(w, &overloadError{
				reason:     shedRateLimit,
				msg:        "assign rate limit exceeded",
				retryAfter: wait,
			})
			return
		}
	}
	inFlight := s.assignInFlight.Add(1)
	defer s.assignInFlight.Add(-1)
	if max := int64(s.cfg.MaxAssignInFlight); max > 0 && inFlight > max {
		s.rejectOverloaded(w, &overloadError{
			reason:     shedInFlight,
			msg:        fmt.Sprintf("too many assign requests in flight (cap %d)", max),
			retryAfter: time.Second,
		})
		return
	}
	e, ok := s.lookupModel(w, r)
	if !ok {
		return
	}
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	req, queries, err := infer.DecodeRequest(data, s.cfg.MaxAssignBatch)
	if err != nil {
		writeAssignError(w, err)
		return
	}
	d, err := s.dispatcher(e)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "build inference engine: %v", err)
		return
	}
	// Validate on the request goroutine — typed 4xx before any queueing,
	// and a bad query can never poison a shared pass.
	if err := d.eng.Validate(queries); err != nil {
		writeAssignError(w, err)
		return
	}
	topK := req.TopK
	if topK == 0 {
		topK = 1
	}
	if topK > d.eng.K() {
		topK = d.eng.K()
	}
	call := &assignCall{queries: queries, topK: topK}
	if err := d.do(call); err != nil {
		var oe *overloadError
		if errors.As(err, &oe) {
			s.rejectOverloaded(w, oe)
			return
		}
		writeAssignError(w, err)
		return
	}
	if call.err != nil {
		writeAssignError(w, call.err)
		return
	}
	writeJSON(w, http.StatusOK, assignResponse{
		ModelID:     e.id,
		K:           d.eng.K(),
		Assignments: call.out,
		Batched:     call.batched,
	})
}

// writeAssignError maps the assign trust boundary's typed errors onto
// status codes: limit overflows are 413, malformed documents and
// unresolvable queries 400 — bad input is never a 5xx. Anything untyped
// (a contained panic, an engine failure on pre-validated input) is a
// genuine server fault and answers 500.
func writeAssignError(w http.ResponseWriter, err error) {
	var le *infer.LimitError
	if errors.As(err, &le) {
		writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	var qe *infer.QueryError
	var de *infer.DecodeError
	if errors.As(err, &qe) || errors.As(err, &de) {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeError(w, http.StatusInternalServerError, "%v", err)
}

// rejectOverloaded answers an admission-control shed: counts it, sets
// Retry-After (whole seconds, rounded up, at least 1), and writes the
// typed 429 body.
func (s *Server) rejectOverloaded(w http.ResponseWriter, oe *overloadError) {
	s.metrics.assignShed[oe.reason].Inc()
	secs := int((oe.retryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeErrorCode(w, http.StatusTooManyRequests, codeOverloaded, "%s", oe.msg)
}
