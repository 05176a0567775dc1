package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"genclus/client"
	"genclus/internal/core"
	"genclus/internal/eval"
	"genclus/internal/hin"
	"genclus/internal/trace"
)

// objectInfo pins an object's identity at job completion so results stay
// servable after the source network is evicted.
type objectInfo struct {
	ID   string
	Type string
}

// job is one queued fit. Mutable fields are guarded by mu; the header
// fields (id, networkID, opts, truth, created) are set before the job is
// published and only written once more, under mu, when finish releases the
// opts warm-start payloads (run reads opts strictly before any finish can
// run, so the two never race).
type job struct {
	id        string
	networkID string
	opts      core.Options
	truth     []int // dense-index ground truth, -1 = unlabeled; nil when absent
	created   time.Time
	// generation is the network's mutation generation captured at submit —
	// the base-generation provenance recorded on the fitted model's
	// snapshot meta (0 for never-mutated networks). net pins the exact
	// view of that generation: mutations applied between submit and run
	// must not leak into the fit, or the recorded provenance would lie
	// and warm-start refits would stop being reproducible. Released (under
	// mu) when the job finishes, so a finished job does not pin a whole
	// network view for its TTL.
	generation int
	net        *hin.Network
	// span is the fit's trace root, opened at submit (parented to the
	// submitting request's span, or to the supervisor decision that
	// triggered the refit) and ended by finish. The worker hangs queue-wait,
	// per-outer-iteration and persist spans off it. Nil for jobs recovered
	// from disk — traces do not survive restarts — and every use is
	// nil-safe. Immutable after the job is published.
	span *trace.Span

	mu       sync.Mutex
	state    client.JobState
	progress core.Progress
	errMsg   string
	result   *core.Model
	objects  []objectInfo
	// modelID names the registry model this job's fitted state was
	// published as (set just before the done transition; also restored by
	// recovery).
	modelID string
	// subs are live progress subscriptions (the SSE events endpoint). Each
	// channel has capacity 1 with drop-oldest delivery: a slow consumer
	// only ever misses intermediate progress, never the latest.
	subs     map[chan core.Progress]struct{}
	metrics  *client.Metrics
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc
	// cancelRequested blocks the queued→running transition so a cancel
	// that lands between queue-pop and fit start cannot leak a fit.
	cancelRequested bool
	// done closes when the job reaches a terminal state; tests and
	// graceful shutdown wait on it.
	done chan struct{}
}

// jobSnapshot is a consistent copy of a job's mutable state.
type jobSnapshot struct {
	state             client.JobState
	progress          core.Progress
	errMsg            string
	result            *core.Model
	objects           []objectInfo
	modelID           string
	metrics           *client.Metrics
	started, finished time.Time
}

func (j *job) snapshot() jobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobSnapshot{
		state:    j.state,
		progress: j.progress,
		errMsg:   j.errMsg,
		result:   j.result,
		objects:  j.objects,
		modelID:  j.modelID,
		metrics:  j.metrics,
		started:  j.started,
		finished: j.finished,
	}
}

// setModelID records the registry model the job's result was published as.
func (j *job) setModelID(id string) {
	j.mu.Lock()
	j.modelID = id
	j.mu.Unlock()
}

// subscribe registers a progress subscription; the caller must
// unsubscribe when done. Terminal transitions are observed via job.done,
// not the channel.
func (j *job) subscribe() chan core.Progress {
	ch := make(chan core.Progress, 1)
	j.mu.Lock()
	if j.subs == nil {
		j.subs = make(map[chan core.Progress]struct{})
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *job) unsubscribe(ch chan core.Progress) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// publishProgress records the latest progress and fans it out to
// subscribers without ever blocking the fitting goroutine. Under j.mu this
// is the only sender to each capacity-1 channel, so draining a stale value
// first guarantees the send lands: a slow consumer misses intermediate
// reports, never the latest.
func (j *job) publishProgress(p core.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress = p
	for ch := range j.subs {
		select {
		case <-ch:
		default:
		}
		ch <- p
	}
}

// finish transitions the job to a terminal state (idempotent: the first
// terminal transition wins) and releases waiters. It reports whether THIS
// call performed the transition, so exactly one caller accounts the
// terminal state even when a cancel races a worker.
func (j *job) finish(state client.JobState, errMsg string, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.finished = now
	// Drop warm-start payloads: a warm-started job's options carry a full
	// |V|×K InitTheta (plus attribute models), which would otherwise sit on
	// the finished job until TTL eviction. The fit holds its own copy. The
	// pinned network view goes for the same reason.
	j.opts.InitTheta = nil
	j.opts.InitGamma = nil
	j.opts.InitAttrs = nil
	j.net = nil
	// The trace root ends with the job: ending it here — the single
	// terminal-transition point — covers worker completion, pre-start
	// cancellation and shutdown alike, and completes the trace into the
	// recorder's ring.
	j.span.SetAttr("state", string(state))
	if errMsg != "" {
		j.span.SetAttr("error", errMsg)
	}
	j.span.End(now)
	close(j.done)
	return true
}

// errQueueFull rejects submissions when the bounded queue has no room.
var errQueueFull = errors.New("job queue is full")

// manager runs the bounded worker pool that drains the job queue.
type manager struct {
	queue   chan *job
	workers int
	now     func() time.Time
	// onDone, when set, runs on the worker goroutine after a successful
	// fit's state is recorded on the job but before the done transition is
	// published — the server hooks model registration and persistence here,
	// so "done" already implies "durable".
	onDone func(j *job, finished time.Time)
	// met and log receive per-job observability: queue-wait and run-time
	// histograms, terminal-state counters, EM iteration counts, and
	// structured start/finish lines keyed by job ID.
	met *serverMetrics
	log *slog.Logger

	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup
}

func newManager(workers, depth int, now func() time.Time, met *serverMetrics, log *slog.Logger) *manager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &manager{
		queue:   make(chan *job, depth),
		workers: workers,
		now:     now,
		met:     met,
		log:     log,
		ctx:     ctx,
		stop:    cancel,
	}
	for w := 0; w < workers; w++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// submit enqueues the job without blocking; a full queue is the caller's
// backpressure signal.
func (m *manager) submit(j *job) error {
	select {
	case m.queue <- j:
		return nil
	default:
		return errQueueFull
	}
}

// cancelJob requests cancellation. A queued job terminates immediately; a
// running one is interrupted via its fit context and terminates when the
// fit notices (between EM iterations).
func (m *manager) cancelJob(j *job) {
	j.mu.Lock()
	j.cancelRequested = true
	cancel := j.cancel
	queued := j.state == client.StateQueued
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if queued && j.finish(client.StateCancelled, "cancelled before start", m.now()) {
		m.countTerminal(j, client.StateCancelled, "cancelled before start")
	}
}

// close stops the workers and aborts any running fits, waiting for all
// worker goroutines to exit, then fails over any jobs still queued so no
// waiter on job.done blocks forever.
func (m *manager) close() {
	m.stop()
	m.wg.Wait()
	for {
		select {
		case j := <-m.queue:
			if j.finish(client.StateCancelled, "server shutting down", m.now()) {
				m.countTerminal(j, client.StateCancelled, "server shutting down")
			}
		default:
			return
		}
	}
}

// countTerminal accounts one terminal transition this caller performed —
// the state counter plus a structured log line keyed by job ID. Callers
// that know the job ran also observe run time via observeRun.
func (m *manager) countTerminal(j *job, state client.JobState, errMsg string) {
	m.met.fitJobs[state].Inc()
	level := slog.LevelInfo
	if state == client.StateFailed {
		level = slog.LevelWarn
	}
	m.log.LogAttrs(context.Background(), level, "job finished",
		slog.String("job", j.id),
		slog.String("state", string(state)),
		slog.String("error", errMsg),
	)
}

func (m *manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			m.run(j)
		}
	}
}

func (m *manager) run(j *job) {
	// A panicking fit must take down the job, not the daemon: jobs carry
	// untrusted networks and options, and the worker goroutine has no
	// other recover between it and the process.
	defer func() {
		if r := recover(); r != nil {
			msg := fmt.Sprintf("fit panicked: %v", r)
			if j.finish(client.StateFailed, msg, m.now()) {
				m.countTerminal(j, client.StateFailed, msg)
			}
		}
	}()
	jctx, cancel := context.WithCancel(m.ctx)
	defer cancel()

	j.mu.Lock()
	if j.state != client.StateQueued || j.cancelRequested { // cancelled while queued
		j.mu.Unlock()
		return
	}
	j.state = client.StateRunning
	j.started = m.now()
	started := j.started
	j.cancel = cancel
	// The job fits exactly the network generation it captured at submit.
	net := j.net
	j.mu.Unlock()
	j.span.Record("job.queue_wait", j.created, started)
	m.met.fitQueueWait.Observe(started.Sub(j.created).Seconds())
	m.log.LogAttrs(context.Background(), slog.LevelInfo, "job started",
		slog.String("job", j.id),
		slog.String("network", j.networkID),
		slog.Duration("queue_wait", started.Sub(j.created)),
	)
	// finishRun settles a job this worker actually started: the terminal
	// transition plus run-time observation (metrics only count a
	// transition this call performed — a racing cancel already counted).
	finishRun := func(state client.JobState, errMsg string, finished time.Time) {
		if !j.finish(state, errMsg, finished) {
			return
		}
		m.met.fitRun.Observe(finished.Sub(started).Seconds())
		m.countTerminal(j, state, errMsg)
	}

	opts := j.opts
	// A fit whose parameters leave the float64 range (a variance that
	// overflows, say) reaches a non-finite g₁. Its job fails naming the
	// value instead of publishing progress, a result and a model that no
	// JSON document or snapshot can hold.
	var nonFinite error
	publish := m.progressHook(j, started)
	opts.Progress = func(p core.Progress) {
		if nonFinite != nil {
			return
		}
		if err := notFinite("objective g₁", p.Objective); err != nil {
			nonFinite = fmt.Errorf("%w after %d outer iterations", err, p.Outer)
			cancel()
			return
		}
		publish(p)
	}
	res, err := core.FitContext(jctx, net, opts)
	if err == nil {
		nonFinite = errors.Join(notFinite("objective g₁", res.Objective), notFinite("pseudo-log-likelihood g′₂", res.PseudoLL))
	}
	if nonFinite != nil {
		err = nonFinite
	}
	switch {
	case err == nil:
		objects := make([]objectInfo, net.NumObjects())
		for v := range objects {
			o := net.Object(v)
			objects[v] = objectInfo{ID: o.ID, Type: o.Type}
		}
		metrics := computeMetrics(res, j.truth)
		j.mu.Lock()
		j.result = res
		j.objects = objects
		j.metrics = metrics
		j.mu.Unlock()
		finished := m.now()
		if m.onDone != nil {
			m.onDone(j, finished)
			// Model registration + snapshot/record writes: the step that
			// makes "done" mean "durable", and the usual suspect when a fit
			// finishes fast but the job seems slow.
			j.span.Record("job.persist", finished, m.now())
		}
		m.met.fitEMIters.Observe(float64(res.EMIterations))
		finishRun(client.StateDone, "", finished)
	case errors.Is(err, context.Canceled):
		msg := "cancelled"
		if m.ctx.Err() != nil {
			msg = "server shutting down"
		}
		finishRun(client.StateCancelled, msg, m.now())
	default:
		finishRun(client.StateFailed, err.Error(), m.now())
	}
}

// notFinite reports x, named what, when it is NaN or infinite.
func notFinite(what string, x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("fit reached a non-finite %s = %v", what, x)
	}
	return nil
}

// progressHook wraps the job's progress fan-out with trace recording: one
// completed span per fit phase — "fit.init" for initialization (Outer 0),
// then "fit.outer_iteration" per completed outer alternation — each
// carrying the objective g₁ and the cumulative inner-EM iteration count at
// that point. The hook runs on the fitting goroutine once per OUTER
// iteration, so it never touches the inner EM loops whose 0 allocs/op
// steady state is gated by benchgate.
func (m *manager) progressHook(j *job, started time.Time) func(core.Progress) {
	prev := started
	return func(p core.Progress) {
		now := m.now()
		name := "fit.outer_iteration"
		if p.Outer == 0 {
			name = "fit.init"
		}
		sp := j.span.Record(name, prev, now)
		sp.SetAttr("outer", p.Outer)
		sp.SetAttr("objective", p.Objective)
		sp.SetAttr("em_iterations", p.EMIterations)
		prev = now
		j.publishProgress(p)
	}
}

// computeMetrics scores the fit against the labeled subset of objects.
// Returns nil when no truth was submitted or the metrics are undefined.
func computeMetrics(res *core.Model, truth []int) *client.Metrics {
	if truth == nil {
		return nil
	}
	pred := res.HardLabels()
	var p, tr []int
	for v, label := range truth {
		if label >= 0 {
			p = append(p, pred[v])
			tr = append(tr, label)
		}
	}
	if len(p) == 0 {
		return nil
	}
	nmi, err := eval.NMI(p, tr)
	if err != nil {
		return nil
	}
	ari, err := eval.AdjustedRandIndex(p, tr)
	if err != nil {
		return nil
	}
	purity, err := eval.Purity(p, tr)
	if err != nil {
		return nil
	}
	return &client.Metrics{NMI: nmi, ARI: ari, Purity: purity, Labeled: len(p)}
}
