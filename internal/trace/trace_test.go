package trace

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := NewSpanContext()
	if !sc.Valid() {
		t.Fatal("NewSpanContext returned an invalid context")
	}
	tp := sc.Traceparent()
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("traceparent %q is not version-00 W3C layout", tp)
	}
	got, ok := Parse(tp)
	if !ok {
		t.Fatalf("Parse(%q) failed", tp)
	}
	if got != sc {
		t.Fatalf("round trip changed the context: %+v != %+v", got, sc)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"",
		"00-abc",
		// version 01
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		// zero trace id
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",
		// zero span id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		// non-hex trace id
		"00-0af7651916cd43dd8448eb211c8031zz-b7ad6b7169203331-01",
		// missing separator
		"00-0af7651916cd43dd8448eb211c80319c.b7ad6b7169203331-01",
		// non-hex flags
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz",
		// trailing garbage
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01x",
	} {
		if sc, ok := Parse(bad); ok || sc.Valid() {
			t.Errorf("Parse(%q) accepted a malformed header", bad)
		}
	}
	// Flags other than 01 are valid per spec (ignored).
	if _, ok := Parse("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00"); !ok {
		t.Error("Parse rejected flags 00")
	}
}

func TestParentAdoptsTraceID(t *testing.T) {
	rec := NewRecorder(4)
	t0 := time.Unix(1000, 0)
	parent := NewSpanContext()
	root := rec.StartTrace("server", parent, t0)
	if root.TraceID() != parent.TraceID {
		t.Fatalf("child trace id %s, want parent's %s", root.TraceID(), parent.TraceID)
	}
	root.End(t0.Add(time.Second))
	snap, ok := rec.Lookup(parent.TraceID)
	if !ok {
		t.Fatal("completed trace not retained")
	}
	if snap.Spans[0].Parent != parent.SpanID {
		t.Fatalf("root parent %s, want remote span %s", snap.Spans[0].Parent, parent.SpanID)
	}
}

func TestSpanTreeAndAttrs(t *testing.T) {
	rec := NewRecorder(4)
	t0 := time.Unix(1000, 0)
	root := rec.StartTrace("job", SpanContext{}, t0)
	child := root.StartChild("queue", t0)
	child.End(t0.Add(2 * time.Second))
	iter := root.Record("iter", t0.Add(2*time.Second), t0.Add(3*time.Second))
	iter.SetAttr("outer", 1)
	iter.SetAttr("objective", -12.5)
	iter.SetAttr("objective", -11.0) // last write wins
	root.End(t0.Add(4 * time.Second))

	snap, ok := rec.Lookup(root.TraceID())
	if !ok {
		t.Fatal("trace not retained after root End")
	}
	if len(snap.Spans) != 3 {
		t.Fatalf("%d spans, want 3", len(snap.Spans))
	}
	rootSnap, queueSnap, iterSnap := snap.Spans[0], snap.Spans[1], snap.Spans[2]
	if !rootSnap.Parent.IsZero() {
		t.Fatal("root span has a parent")
	}
	if queueSnap.Parent != rootSnap.ID || iterSnap.Parent != rootSnap.ID {
		t.Fatal("children not parented to the root")
	}
	if queueSnap.Duration() != 2*time.Second || iterSnap.Duration() != time.Second {
		t.Fatalf("durations %v/%v, want 2s/1s", queueSnap.Duration(), iterSnap.Duration())
	}
	if rootSnap.Duration() != 4*time.Second {
		t.Fatalf("root duration %v, want 4s", rootSnap.Duration())
	}
	if len(iterSnap.Attrs) != 2 {
		t.Fatalf("iter attrs %v, want 2 (last write wins)", iterSnap.Attrs)
	}
	if iterSnap.Attrs[1].Key != "objective" || iterSnap.Attrs[1].Value != -11.0 {
		t.Fatalf("objective attr %v, want -11.0", iterSnap.Attrs[1])
	}
	ids := map[SpanID]bool{}
	for _, sp := range snap.Spans {
		if sp.ID.IsZero() || ids[sp.ID] {
			t.Fatalf("span id %s zero or duplicated", sp.ID)
		}
		ids[sp.ID] = true
	}
}

func TestLiveSnapshot(t *testing.T) {
	rec := NewRecorder(4)
	t0 := time.Unix(1000, 0)
	root := rec.StartTrace("job", SpanContext{}, t0)
	root.Record("queue", t0, t0.Add(time.Second))
	snap := root.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("live snapshot has %d spans, want 2", len(snap.Spans))
	}
	if !snap.Spans[0].End.IsZero() {
		t.Fatal("open root snapshotted with a non-zero end")
	}
	// The in-flight trace is not in the ring yet.
	if _, ok := rec.Lookup(root.TraceID()); ok {
		t.Fatal("in-flight trace retained before root End")
	}
}

func TestRingBoundAndOrder(t *testing.T) {
	rec := NewRecorder(3)
	t0 := time.Unix(1000, 0)
	var ids []TraceID
	for i := 0; i < 5; i++ {
		root := rec.StartTrace(fmt.Sprintf("t%d", i), SpanContext{}, t0)
		root.End(t0.Add(time.Duration(i) * time.Second))
		ids = append(ids, root.TraceID())
	}
	recent := rec.Recent()
	if len(recent) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(recent))
	}
	// Newest first: t4, t3, t2.
	for i, want := range []TraceID{ids[4], ids[3], ids[2]} {
		if recent[i].TraceID != want {
			t.Fatalf("recent[%d] = %s, want %s", i, recent[i].TraceID, want)
		}
	}
	if _, ok := rec.Lookup(ids[0]); ok {
		t.Fatal("evicted trace still resolvable")
	}
}

// TestLookupMergesEntriesOfOneTrace: a trace id completed twice (a job
// trace, then the submit request that continues the same id) resolves to
// the spans of both entries, oldest entry first, whichever completed last.
func TestLookupMergesEntriesOfOneTrace(t *testing.T) {
	rec := NewRecorder(4)
	t0 := time.Unix(1000, 0)
	parent := NewSpanContext()
	job := rec.StartTrace("job.fit", parent, t0)
	job.Record("fit.outer_iteration", t0, t0.Add(time.Second))
	job.End(t0.Add(2 * time.Second))
	other := rec.StartTrace("other", SpanContext{}, t0)
	other.End(t0.Add(time.Second))
	req := rec.StartTrace("POST /v1/jobs", parent, t0)
	req.End(t0.Add(3 * time.Second))

	snap, ok := rec.Lookup(parent.TraceID)
	if !ok {
		t.Fatal("trace not retained")
	}
	if snap.TraceID != parent.TraceID {
		t.Fatalf("trace id %s, want %s", snap.TraceID, parent.TraceID)
	}
	var names []string
	for _, sp := range snap.Spans {
		names = append(names, sp.Name)
	}
	if want := []string{"job.fit", "fit.outer_iteration", "POST /v1/jobs"}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
}

func TestNilSpanIsSafe(t *testing.T) {
	var sp *Span
	sp.SetAttr("k", 1)
	sp.End(time.Now())
	if c := sp.StartChild("x", time.Now()); c != nil {
		t.Fatal("nil StartChild returned a span")
	}
	if c := sp.Record("x", time.Now(), time.Now()); c != nil {
		t.Fatal("nil Record returned a span")
	}
	if sp.Context().Valid() {
		t.Fatal("nil Context is valid")
	}
	if snap := sp.Snapshot(); len(snap.Spans) != 0 {
		t.Fatal("nil Snapshot has spans")
	}
}

// TestConcurrentSpanRecording exercises the fit-goroutine-vs-handler shape:
// one goroutine records child spans while others snapshot the live trace and
// the recorder completes sibling traces. Run with -race.
func TestConcurrentSpanRecording(t *testing.T) {
	rec := NewRecorder(8)
	t0 := time.Unix(1000, 0)
	root := rec.StartTrace("job", SpanContext{}, t0)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			sp := root.Record("iter", t0, t0.Add(time.Second))
			sp.SetAttr("outer", i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = root.Snapshot()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r := rec.StartTrace("req", SpanContext{}, t0)
			r.End(t0.Add(time.Millisecond))
			_ = rec.Recent()
		}
	}()
	wg.Wait()
	root.End(t0.Add(time.Minute))
	snap, ok := rec.Lookup(root.TraceID())
	if !ok {
		t.Fatal("job trace not retained")
	}
	if len(snap.Spans) != 101 {
		t.Fatalf("%d spans, want 101", len(snap.Spans))
	}
}

func TestDoubleEndCompletesOnce(t *testing.T) {
	rec := NewRecorder(4)
	t0 := time.Unix(1000, 0)
	root := rec.StartTrace("r", SpanContext{}, t0)
	root.End(t0.Add(time.Second))
	root.End(t0.Add(time.Hour)) // idempotent: neither re-keeps nor re-times
	if got := len(rec.Recent()); got != 1 {
		t.Fatalf("ring holds %d traces after double End, want 1", got)
	}
	snap, _ := rec.Lookup(root.TraceID())
	if snap.Spans[0].Duration() != time.Second {
		t.Fatalf("second End overwrote the root end: %v", snap.Spans[0].Duration())
	}
}

// TestSpanAndAttrCaps pins the flight-recorder bounds: a trace drops spans
// past maxSpansPerTrace (StartChild returns a safe nil) and a span drops
// new attribute keys past maxAttrsPerSpan while still updating existing
// ones.
func TestSpanAndAttrCaps(t *testing.T) {
	r := NewRecorder(1)
	at := time.Unix(0, 0)
	root := r.StartTrace("root", SpanContext{}, at)
	for i := 0; i < maxSpansPerTrace+10; i++ {
		sp := root.Record("child", at, at)
		if i < maxSpansPerTrace-1 && sp == nil { // root occupies one slot
			t.Fatalf("span %d dropped below the cap", i)
		}
		if i >= maxSpansPerTrace && sp != nil {
			t.Fatalf("span %d admitted past the cap", i)
		}
		sp.SetAttr("i", i) // nil-safe past the cap
	}
	if n := len(root.Snapshot().Spans); n != maxSpansPerTrace {
		t.Fatalf("trace holds %d spans, want the cap %d", n, maxSpansPerTrace)
	}

	for i := 0; i < maxAttrsPerSpan+10; i++ {
		root.SetAttr(fmt.Sprintf("k%04d", i), i)
	}
	root.SetAttr("k0000", "updated") // existing keys update past the cap
	attrs := root.Snapshot().Spans[0].Attrs
	if len(attrs) != maxAttrsPerSpan {
		t.Fatalf("span holds %d attrs, want the cap %d", len(attrs), maxAttrsPerSpan)
	}
	if attrs[0].Key != "k0000" || attrs[0].Value != "updated" {
		t.Fatalf("existing attr not updated past the cap: %+v", attrs[0])
	}
}
