// Package trace is genclusd's dependency-free distributed-tracing core: a
// span recorder with a bounded in-memory ring of recent completed traces,
// plus W3C traceparent generation and parsing for propagating trace context
// across process boundaries (SDK → primary, replica → primary, supervisor →
// refit job).
//
// The design keeps tracing away from the numeric hot paths by construction:
// spans are only ever opened at request, job, sync-pass and outer-iteration
// granularity — never inside EM inner loops — so the EM-iteration and
// assign-batch 0 allocs/op contracts hold with tracing active. All Span
// methods are nil-receiver safe, so call sites on optional paths (recovered
// jobs, tracer-less Syncers) need no guards.
//
// Timestamps are always supplied by the caller: the package never reads the
// wall clock, which keeps span timing on the server's injectable test clock
// and makes recorded traces deterministic under a fake clock.
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte W3C trace id shared by every span of one trace,
// across every process the trace touches.
type TraceID [16]byte

// IsZero reports the invalid all-zero trace id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the id as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// ParseTraceID decodes a 32-hex trace id (the String form); the boolean
// reports success, and an all-zero id is rejected like Parse does.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return TraceID{}, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil || t.IsZero() {
		return TraceID{}, false
	}
	return t, true
}

// SpanID is the 8-byte W3C span id, unique within its trace.
type SpanID [8]byte

// IsZero reports the invalid all-zero span id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagatable slice of a span's identity: enough to
// parent a remote child span onto the same trace.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether the context identifies a real span (both ids
// non-zero, per the W3C traceparent spec).
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the context in the W3C traceparent header format:
// version 00, sampled flag set ("" for an invalid context, so callers can
// set headers unconditionally).
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	var buf [55]byte
	buf[0], buf[1], buf[2] = '0', '0', '-'
	hex.Encode(buf[3:35], sc.TraceID[:])
	buf[35] = '-'
	hex.Encode(buf[36:52], sc.SpanID[:])
	buf[52], buf[53], buf[54] = '-', '0', '1'
	return string(buf[:])
}

// Parse decodes a W3C traceparent header value. It accepts exactly the
// version-00 layout ("00-<32 hex>-<16 hex>-<2 hex>"), requires non-zero
// trace and span ids, and ignores the flags byte. The boolean reports
// success; a malformed header simply yields an invalid (ignorable) context —
// inbound headers are untrusted and must never fail a request.
func Parse(s string) (SpanContext, bool) {
	var sc SpanContext
	if len(s) != 55 || s[0] != '0' || s[1] != '0' || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, false
	}
	if !isHex(s[53]) || !isHex(s[54]) || !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// NewSpanContext mints a fresh root context (random trace and span ids) for
// callers that originate a trace without a Recorder — the client SDK uses it
// so MultiEndpoint failover attempts share one traceparent.
func NewSpanContext() SpanContext {
	var sc SpanContext
	fillRandom(sc.TraceID[:])
	fillRandom(sc.SpanID[:])
	return sc
}

// idFallback feeds id generation when crypto/rand is unavailable (it is not
// in practice; this keeps ids non-zero rather than panicking).
var idFallback atomic.Uint64

func fillRandom(b []byte) {
	if _, err := rand.Read(b); err != nil || allZero(b) {
		n := idFallback.Add(1)
		binary.BigEndian.PutUint64(b[len(b)-8:], n|1<<63)
	}
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// Attr is one key/value span attribute. Value is a small scalar (string,
// int, int64, float64, bool) set via the Span setters.
type Attr struct {
	Key   string
	Value any
}

// Per-trace and per-span caps: tracing is an always-on flight recorder, so
// a pathological caller (or a bug in a hook) must never grow one trace
// without bound. Excess spans and attributes are silently dropped — spans
// by StartChild/Record returning nil (every Span method is nil-safe), new
// attribute keys by SetAttr becoming a no-op (existing keys still update).
const (
	maxSpansPerTrace = 4096
	maxAttrsPerSpan  = 64
)

// Span is one timed operation inside a trace. Spans are created via
// Recorder.StartTrace (roots), Span.StartChild (open children) and
// Span.Record (already-completed children). All methods are safe on a nil
// receiver — optional tracing paths need no guards — and safe for concurrent
// use (the fit goroutine records iteration spans while handlers snapshot the
// same trace).
type Span struct {
	tr     *trace
	name   string
	id     SpanID
	parent SpanID // zero for a root with no remote parent
	root   bool   // ending the root completes the trace
	start  time.Time
	end    time.Time // zero while the span is open
	attrs  []Attr
}

// trace is the shared state of one trace's spans. The root span's End
// completes the trace into the recorder's ring.
type trace struct {
	mu       sync.Mutex
	id       TraceID
	rec      *Recorder
	spans    []*Span
	spanBase SpanID // XOR base for counter-derived span ids
	nextSpan uint64
	done     bool
}

// newSpanID derives the next span id from the per-trace random base and a
// counter: unique within the trace, no per-span entropy read. Caller holds
// tr.mu.
func (tr *trace) newSpanID() SpanID {
	tr.nextSpan++
	var id SpanID
	binary.BigEndian.PutUint64(id[:], binary.BigEndian.Uint64(tr.spanBase[:])^tr.nextSpan)
	if id.IsZero() {
		id[0] = 1
	}
	return id
}

// Context returns the span's propagatable identity (zero on nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.tr.id, SpanID: s.id}
}

// TraceID returns the trace the span belongs to (zero on nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.tr.id
}

// StartChild opens a child span at the given start time. The child must be
// ended (End) before the root ends for its duration to be final; a child
// still open when the trace completes is snapshotted with a zero end. Once
// the trace holds maxSpansPerTrace spans, StartChild returns nil (safe to
// use) and the child is dropped.
func (s *Span) StartChild(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	tr := s.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) >= maxSpansPerTrace {
		return nil
	}
	child := &Span{tr: tr, name: name, id: tr.newSpanID(), parent: s.id, start: start}
	tr.spans = append(tr.spans, child)
	return child
}

// Record appends an already-completed child span — the one-call form for
// retrospective intervals (queue wait, a finished outer iteration). The
// returned span accepts attributes.
func (s *Span) Record(name string, start, end time.Time) *Span {
	child := s.StartChild(name, start)
	if child != nil {
		child.tr.mu.Lock()
		child.end = end
		child.tr.mu.Unlock()
	}
	return child
}

// SetAttr attaches a key/value attribute (last write wins per key). A span
// already holding maxAttrsPerSpan attributes drops new keys (existing keys
// still update).
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	if len(s.attrs) >= maxAttrsPerSpan {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End closes the span at the given time. Ending the root span completes the
// whole trace into the recorder's ring (idempotent: only the first End of
// the root completes it).
func (s *Span) End(end time.Time) {
	if s == nil {
		return
	}
	tr := s.tr
	tr.mu.Lock()
	if s.end.IsZero() {
		s.end = end
	}
	complete := s.root && !tr.done
	if complete {
		tr.done = true
	}
	var snap Snapshot
	if complete {
		snap = tr.snapshotLocked()
	}
	tr.mu.Unlock()
	if complete && tr.rec != nil {
		tr.rec.keep(snap)
	}
}

// SpanSnapshot is one span's immutable copy inside a Snapshot. A zero End
// means the span was still open when the snapshot was taken.
type SpanSnapshot struct {
	Name   string
	ID     SpanID
	Parent SpanID // the root's Parent is the remote span id, or zero
	Start  time.Time
	End    time.Time
	Attrs  []Attr
}

// Duration is End−Start, or 0 while the span is open.
func (s SpanSnapshot) Duration() time.Duration {
	if s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Snapshot is a consistent copy of one trace: the root span first, children
// in creation order.
type Snapshot struct {
	TraceID TraceID
	Spans   []SpanSnapshot
}

// Snapshot copies the span's whole trace — servable while the trace is still
// in flight (a running job's timeline). Returns a zero Snapshot on nil.
func (s *Span) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.tr.snapshotLocked()
}

func (tr *trace) snapshotLocked() Snapshot {
	out := Snapshot{TraceID: tr.id, Spans: make([]SpanSnapshot, len(tr.spans))}
	for i, sp := range tr.spans {
		out.Spans[i] = SpanSnapshot{
			Name:   sp.name,
			ID:     sp.id,
			Parent: sp.parent,
			Start:  sp.start,
			End:    sp.end,
			Attrs:  append([]Attr(nil), sp.attrs...),
		}
	}
	return out
}

// Recorder mints traces and retains a bounded ring of the most recent
// completed ones. Safe for concurrent use.
type Recorder struct {
	mu   sync.Mutex
	ring []Snapshot // ring[next] is the oldest slot once full
	next int
	size int
	cap  int
}

// NewRecorder builds a Recorder retaining up to capacity completed traces
// (minimum 1; callers disable retention by policy, not capacity 0).
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	return &Recorder{ring: make([]Snapshot, capacity), cap: capacity}
}

// StartTrace opens a new trace and returns its root span. A valid parent
// context adopts the caller's trace id and records the remote span as the
// root's parent — the cross-process join; an invalid one mints a fresh
// trace id. Callable on a nil Recorder: the spans work normally (ids,
// children, snapshots) but the completed trace is not retained — callers
// with an optional recorder need no guards.
func (r *Recorder) StartTrace(name string, parent SpanContext, start time.Time) *Span {
	tr := &trace{rec: r}
	if parent.Valid() {
		tr.id = parent.TraceID
	} else {
		fillRandom(tr.id[:])
	}
	fillRandom(tr.spanBase[:])
	root := &Span{tr: tr, name: name, id: tr.newSpanID(), parent: parent.SpanID, root: true, start: start}
	tr.spans = append(tr.spans, root)
	return root
}

// keep pushes a completed trace into the ring, evicting the oldest.
func (r *Recorder) keep(snap Snapshot) {
	r.mu.Lock()
	r.ring[r.next] = snap
	r.next = (r.next + 1) % r.cap
	if r.size < r.cap {
		r.size++
	}
	r.mu.Unlock()
}

// Recent returns the retained completed traces, newest first.
func (r *Recorder) Recent() []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Snapshot, 0, r.size)
	for i := 1; i <= r.size; i++ {
		out = append(out, r.ring[(r.next-i+r.cap)%r.cap])
	}
	return out
}

// Lookup returns every retained span of trace id: one trace id can span
// several ring entries (a submit request and the job.fit trace that
// continues it complete separately, in either order), so their spans are
// merged oldest entry first. The boolean reports whether any entry matched.
func (r *Recorder) Lookup(id TraceID) (Snapshot, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := Snapshot{TraceID: id}
	found := false
	for i := r.size; i >= 1; i-- {
		if snap := r.ring[(r.next-i+r.cap)%r.cap]; snap.TraceID == id {
			out.Spans = append(out.Spans, snap.Spans...)
			found = true
		}
	}
	return out, found
}
