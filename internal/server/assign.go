package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"genclus/client"
	"genclus/internal/infer"
)

// Online inference: POST /v1/models/{id}/assign folds batches of new
// objects — links into the model's known network plus optional partial
// attribute observations — into a registered model's hidden space without
// refitting. Per model the server keeps one inference engine (cached by
// snapshot digest, so re-imports and restarts reuse the same derived
// views) behind a mutex: each request validates on its own goroutine, then
// runs one engine pass over its own queries under the lock. The posterior
// scores every query on its own against the frozen model, so coalescing
// requests into shared passes would save no work. The engine pass itself is
// deterministic and allocation-free in steady state (see internal/infer).

// The request and assignment documents are internal/infer's (a RequestDoc
// body decoded straight into queries by infer.DecodeRequest, AssignmentDoc
// produced by infer.AssignmentDocs), so the daemon and the CLI's offline
// -assign mode speak byte-for-byte the same format; the envelope is
// client.AssignResponse.

// ---- engine cache ----

// assignEngines caches one engine (with the lock that serializes its
// passes) per snapshot digest, LRU-evicted beyond cap: the digest
// identifies the model's canonical bytes, so a re-imported or recovered
// model reuses the same derived scoring views. Entries are reserved under
// the mutex but BUILT outside it (engine construction walks the whole
// model), so a cold build for one model never stalls assign traffic to the
// others; concurrent requests for the same digest wait on the reservation.
type assignEngines struct {
	mu      sync.Mutex
	entries map[string]*cachedEngine
	cap     int
}

// engine fetches or builds the cached engine for a model entry.
func (s *Server) engine(e *modelEntry) (*cachedEngine, error) {
	c := &s.assignCache
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[string]*cachedEngine)
	}
	if ce, ok := c.entries[e.digest]; ok {
		ce.lastUsed = s.cfg.now()
		c.mu.Unlock()
		s.metrics.assignCacheHits.Inc()
		<-ce.ready
		if ce.buildErr != nil {
			return nil, ce.buildErr
		}
		return ce, nil
	}
	// Reserve the digest, then build without the lock. A failed build is
	// removed so the next request retries.
	ce := &cachedEngine{
		maxQueue: int64(s.cfg.MaxAssignQueue),
		met:      s.metrics,
		passHook: s.assignPassHook,
		lastUsed: s.cfg.now(),
		ready:    make(chan struct{}),
	}
	c.entries[e.digest] = ce
	c.evictOverflowLocked()
	c.mu.Unlock()
	s.metrics.assignCacheMisses.Inc()

	lim := infer.DefaultLimits()
	lim.MaxBatch = 0 // batch size is bounded at decode (infer.DecodeRequest)
	eng, err := infer.NewEngine(e.model, infer.Options{
		TopK:   e.model.K, // responses trim to the requested top_k
		Limits: lim,
	})
	ce.eng, ce.buildErr = eng, err
	close(ce.ready)
	if err != nil {
		c.mu.Lock()
		if c.entries[e.digest] == ce {
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
	return ce, nil
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

// overloadError is an admission-control rejection: which limiter shed the
// request and how long the client should wait before retrying.
type overloadError struct {
	reason     string
	msg        string
	retryAfter time.Duration
}

func (e *overloadError) Error() string { return e.msg }

// recordPass accounts one request's engine pass scoring `objects` query
// objects. The increment order is load-bearing; see assignStats.
func (m *serverMetrics) recordPass(objects int, elapsed time.Duration) {
	m.assignObjects.Add(int64(objects))
	m.assignRequests.Inc()
	m.assignPasses.Inc()
	m.assignOccupancy.Observe(float64(objects))
	m.assignPassSecs.Observe(elapsed.Seconds())
}

// assignStats builds the healthz assign block from the registry counters.
// recordPass adds objects, then requests, then passes; this loads passes,
// then requests, then objects. sync/atomic operations are sequentially
// consistent, so every increment a load sees was preceded by the pass's
// earlier increments, which the later loads see too: every read satisfies
// passes ≤ requests ≤ objects without a lock. Nothing increments the
// batched counter any more; it reads 0.
func (m *serverMetrics) assignStats() client.AssignStats {
	passes := m.assignPasses.Value()
	batched := m.assignBatched.Value()
	requests := m.assignRequests.Value()
	objects := m.assignObjects.Value()
	var shed int64
	for _, c := range m.assignShed {
		shed += c.Value()
	}
	return client.AssignStats{
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

// cachedEngine is one model's inference engine. The engine owns a single
// scratch arena and is not safe for concurrent use, so mu serializes its
// passes: each request holds mu for exactly one pass over its own queries.
type cachedEngine struct {
	eng *infer.Engine
	// maxQueue bounds waiting (0: unbounded); a request past it fails with
	// a typed overloadError, so clients get a fast 429 instead of a slow
	// timeout behind a wedged or slow pass.
	maxQueue int64
	met      *serverMetrics
	// passHook, when set (tests), runs at the start of every engine pass.
	passHook func()

	// ready closes once the engine build finished (Server.engine fills eng
	// or buildErr first); cache readers that found a reserved entry wait on it.
	ready    chan struct{}
	buildErr error

	mu      sync.Mutex
	waiting atomic.Int64 // query objects of requests waiting for mu

	// lastUsed drives the engine cache's LRU eviction (guarded by the
	// cache mutex, not mu).
	lastUsed time.Time
}

// assign scores one request's pre-validated queries in one engine pass
// and copies the results out of the engine arena before releasing the
// lock. A request that would push waiting past maxQueue is shed at once.
// A panicking pass fails only its own request: the deferred recover turns
// it into an error and the lock is released either way, so the model's
// assign traffic never wedges.
func (ce *cachedEngine) assign(queries []infer.Query, topK int) (docs []infer.AssignmentDoc, err error) {
	n := int64(len(queries))
	if w := ce.waiting.Add(n); ce.maxQueue > 0 && w > ce.maxQueue {
		ce.waiting.Add(-n)
		return nil, &overloadError{
			reason:     shedQueueFull,
			msg:        fmt.Sprintf("assign queue full (%d objects waiting, cap %d)", w-n, ce.maxQueue),
			retryAfter: time.Second,
		}
	}
	ce.met.assignQueueDepth.Add(n)
	ce.mu.Lock()
	ce.waiting.Add(-n)
	ce.met.assignQueueDepth.Add(-n)
	defer func() {
		if r := recover(); r != nil {
			docs, err = nil, fmt.Errorf("inference pass panicked: %v", r)
		}
		ce.mu.Unlock()
	}()
	if ce.passHook != nil {
		ce.passHook()
	}
	// AssignBatch re-validates the queries: map lookups against scoring's
	// arithmetic, and the arena pass never runs on unvalidated input.
	start := time.Now()
	out, err := ce.eng.AssignBatch(queries)
	ce.met.recordPass(len(queries), time.Since(start))
	if err != nil {
		return nil, err
	}
	return infer.AssignmentDocs(out, topK), nil
}

// ---- handler ----

func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	// Admission control runs before any decoding: a shed request costs the
	// server almost nothing. Order: rate limit (policy), then the global
	// in-flight cap (protects everything below), then the per-model queue
	// bound inside assign().
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
	topK, queries, err := infer.DecodeRequest(data, s.cfg.MaxAssignBatch)
	if err != nil {
		writeAssignError(w, err)
		return
	}
	ce, err := s.engine(e)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "build inference engine: %v", err)
		return
	}
	// Validate on the request goroutine — typed 4xx before waiting for the
	// engine lock.
	if err := ce.eng.Validate(queries); err != nil {
		writeAssignError(w, err)
		return
	}
	if topK == 0 {
		topK = 1
	}
	if topK > ce.eng.K() {
		topK = ce.eng.K()
	}
	docs, err := ce.assign(queries, topK)
	if err != nil {
		var oe *overloadError
		if errors.As(err, &oe) {
			s.rejectOverloaded(w, oe)
			return
		}
		writeAssignError(w, err)
		return
	}
	resp := &client.AssignResponse{ModelID: e.id, K: ce.eng.K(), Assignments: docs}
	writeEncoded(w, http.StatusOK, 0, func(dst []byte) ([]byte, error) { return infer.AppendResponse(dst, resp) })
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
	writeErrorCode(w, http.StatusTooManyRequests, client.CodeOverloaded, "%s", oe.msg)
}
