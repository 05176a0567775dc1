package main

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced run. Spans the benchmark records
// itself and spans pulled from the daemon's trace routes share this shape,
// so one self-time table covers both sides of the process boundary.
type span struct {
	Name    string         `json:"name"`
	TraceID string         `json:"trace_id"`
	SpanID  string         `json:"span_id"`
	Parent  string         `json:"parent_span_id,omitempty"`
	Start   time.Time      `json:"start"`
	End     time.Time      `json:"end"`
	Source  string         `json:"source"` // "bench" or "daemon"
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// dur is the span's length.
func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// traceparent is the W3C header that makes the daemon's spans children of s.
func (s *span) traceparent() string { return "00-" + s.TraceID + "-" + s.SpanID + "-01" }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing switched off: every method is a no-op and returns nil spans.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func randomHex(bytes int) string {
	b := make([]byte, bytes)
	if _, err := rand.Read(b); err != nil {
		panic(fmt.Sprintf("crypto/rand: %v", err))
	}
	return hex.EncodeToString(b)
}

// root opens a span that starts a new trace. link, when non-nil, becomes
// its parent, so each operation gets its own trace id (the daemon resolves
// traces by id) while staying under the run's root span in the tree.
func (r *recorder) root(name string, link *span) *span {
	if r == nil {
		return nil
	}
	s := &span{Name: name, TraceID: randomHex(16), SpanID: randomHex(8), Start: time.Now(), Source: "bench"}
	if link != nil {
		s.Parent = link.SpanID
	}
	return s
}

// child opens a span inside parent's trace.
func (r *recorder) child(parent *span, name string) *span {
	if r == nil || parent == nil {
		return nil
	}
	return &span{Name: name, TraceID: parent.TraceID, SpanID: randomHex(8), Parent: parent.SpanID, Start: time.Now(), Source: "bench"}
}

// end closes s now and keeps it.
func (r *recorder) end(s *span) {
	if r == nil || s == nil {
		return
	}
	s.End = time.Now()
	r.add(*s)
}

// add keeps spans recorded elsewhere (the daemon's).
func (r *recorder) add(spans ...span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, spans...)
	r.mu.Unlock()
}

// all returns a copy of the kept spans.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanStat is one row of the per-name table.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTime is a span's duration minus the part of its interval that its
// children cover (overlapping children count once).
func selfTime(s span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.End) {
			b = s.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a.After(curB):
			covered += curB.Sub(curA)
			curA, curB = v.a, v.b
		case v.b.After(curB):
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return s.dur() - covered
}

// spanTable aggregates spans by name: count, total and self time, largest
// self time first.
func spanTable(spans []span) []spanStat {
	kids := make(map[string][]span)
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	rows := make(map[string]*spanStat)
	for _, s := range spans {
		row := rows[s.Name]
		if row == nil {
			row = &spanStat{Name: s.Name}
			rows[s.Name] = row
		}
		row.Count++
		row.TotalMS += ms(s.dur())
		row.SelfMS += ms(selfTime(s, kids[s.SpanID]))
	}
	out := make([]spanStat, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeSpans writes every span and the per-name table to path.
func writeSpans(path string, host hostStamp, workload string, seed int64, spans []span) ([]spanStat, error) {
	table := spanTable(spans)
	data, err := json.Marshal(struct {
		Host     hostStamp  `json:"host"`
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Table    []spanStat `json:"table"`
		Spans    []span     `json:"spans"`
	}{host, workload, seed, table, spans})
	if err != nil {
		return nil, fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return table, nil
}

// ms converts a duration to float milliseconds with every digit kept.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
