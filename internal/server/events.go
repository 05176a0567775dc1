package server

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// The events endpoint streams a job's lifecycle as Server-Sent Events:
//
//	event: state     data: the same JSON as GET /v1/jobs/{id}
//	event: progress  data: {"outer":N,"outer_total":M,"objective":G,"em_iterations":E}
//
// G is g₁ (Eq. 9) after outer iteration N and E the fit's running EM
// total (client.Progress). A "state" event is sent immediately on connect,
// a "progress" event for each fit progress report (coalesced: a slow
// consumer sees the latest, not every intermediate), and a final "state"
// event when the job reaches a terminal state, after which the stream
// ends. The handler returns as soon as the client disconnects, so an
// abandoned stream never pins a goroutine.

// sseWriter frames SSE events onto a flushable ResponseWriter.
type sseWriter struct {
	w http.ResponseWriter
	f http.Flusher
}

func (s sseWriter) event(name string, payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", name, data); err != nil {
		return err
	}
	s.f.Flush()
	return nil
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported by this connection")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // tell buffering proxies to pass events through
	w.WriteHeader(http.StatusOK)

	sse := sseWriter{w: w, f: flusher}
	// Subscribe before the initial snapshot: a progress report landing in
	// between is buffered in the subscription, not lost.
	sub := j.subscribe()
	defer j.unsubscribe(sub)

	if err := sse.event("state", s.jobDoc(j)); err != nil {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.draining:
			// Graceful shutdown: end the stream so http.Server.Shutdown is
			// not held open until its timeout by attached consumers.
			return
		case p := <-sub:
			if err := sse.event("progress", progressDoc(p)); err != nil {
				return
			}
		case <-j.done:
			// Drain any progress that raced the terminal transition, then
			// close with the final state (which carries final progress).
			select {
			case p := <-sub:
				_ = sse.event("progress", progressDoc(p))
			default:
			}
			_ = sse.event("state", s.jobDoc(j))
			return
		}
	}
}
