package main

import (
	"testing"
	"time"
)

func TestSelfTimeCountsOverlapOnceAndClipsChildren(t *testing.T) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{Name: "op", SpanID: "p", Start: at(0), End: at(100)}
	spans := []span{
		parent,
		{Name: "child", SpanID: "a", Parent: "p", Start: at(10), End: at(30)},
		{Name: "child", SpanID: "b", Parent: "p", Start: at(20), End: at(40)},  // overlaps a
		{Name: "child", SpanID: "c", Parent: "p", Start: at(90), End: at(120)}, // runs past the parent
		{Name: "grandchild", SpanID: "d", Parent: "a", Start: at(15), End: at(25)},
	}
	if got := selfTime(parent, spans[1:4]); got != 60*time.Millisecond {
		t.Errorf("self time = %v, want 100 − (10..40) − (90..100) = 60ms", got)
	}
	rows := map[string]spanStat{}
	for _, row := range spanTable(spans) {
		rows[row.Name] = row
	}
	want := map[string]spanStat{
		"op":         {Name: "op", Count: 1, TotalMS: 100, SelfMS: 60},
		"child":      {Name: "child", Count: 3, TotalMS: 70, SelfMS: 60}, // a loses 10ms to d
		"grandchild": {Name: "grandchild", Count: 1, TotalMS: 10, SelfMS: 10},
	}
	for name, w := range want {
		if rows[name] != w {
			t.Errorf("table row %s = %+v, want %+v", name, rows[name], w)
		}
	}
}

func TestNilRecorderIsTracingOff(t *testing.T) {
	var r *recorder
	s := r.root("bench.x", nil)
	c := r.child(s, "client.x")
	r.end(c)
	r.end(s)
	if s != nil || c != nil || len(r.all()) != 0 {
		t.Fatal("a nil recorder must record nothing")
	}
	on := &recorder{}
	root := on.root("bench.x", nil)
	op := on.root("op.x", root)
	call := on.child(op, "client.x")
	on.end(call)
	on.end(op)
	on.end(root)
	got := on.all()
	if len(got) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(got))
	}
	if op.TraceID == root.TraceID || op.Parent != root.SpanID {
		t.Error("an op starts its own trace under the run's root span")
	}
	if call.TraceID != op.TraceID || call.Parent != op.SpanID {
		t.Error("a call span belongs to its op's trace")
	}
	if tp := call.traceparent(); len(tp) != 55 || tp[3:35] != call.TraceID {
		t.Errorf("traceparent %q", tp)
	}
}
