package server

import (
	"context"
	"errors"
	"log/slog"
	"math"
	"net/http"

	"genclus/client"
	"genclus/internal/deltalog"
	"genclus/internal/hin"
	diskstore "genclus/internal/store"
)

// Streaming mutation: POST /v1/networks/{id}/edges (add/remove links),
// POST /v1/networks/{id}/objects (add objects with links and
// observations), PATCH /v1/networks/{id}/attributes (replace per-object
// observations). Each request decodes behind the hin.Limits trust
// boundary, applies as a new immutable view generation (in-flight fits
// and assigns keep their snapshot), appends to the network's crash-safe
// delta log, and only then publishes the new view — so an acknowledged
// mutation is durable, and a SIGKILL at any point leaves a replayable
// contiguous log prefix. The first mutation of a network also persists
// the network's base document, which is what the log replays against on
// recovery.

// bucketNetworks holds the base document of every mutated network (plain
// uploads stay memory-only until their first mutation).
const bucketNetworks = "networks"

// mutationStats builds the healthz mutation block. Monotone counters and
// the drift score come from the metrics registry; st supplies the
// instantaneous fields (delta-log depth, supervisor count) at read time.
func (m *serverMetrics) mutationStats(st *store) client.MutationStats {
	return client.MutationStats{
		Mutations:       m.networkMutations.Value(),
		DeltaLogDepth:   int64(st.deltaDepth()),
		Supervisors:     int64(st.numSupervisors()),
		DriftScore:      math.Float64frombits(m.driftBits.Load()),
		RefitsTriggered: m.supervisorRefitsTriggered.Value(),
		RefitsSucceeded: m.supervisorRefitsSucceeded.Value(),
		RefitsFailed:    m.supervisorRefitsFailed.Value(),
	}
}

// ---- handlers ----

func (s *Server) handleMutateEdges(w http.ResponseWriter, r *http.Request) {
	s.handleMutation(w, r, deltalog.OpEdges)
}

func (s *Server) handleMutateObjects(w http.ResponseWriter, r *http.Request) {
	s.handleMutation(w, r, deltalog.OpObjects)
}

func (s *Server) handleMutateAttributes(w http.ResponseWriter, r *http.Request) {
	s.handleMutation(w, r, deltalog.OpAttributes)
}

// handleMutation is the shared mutation path:
// decode (trust boundary) → apply (new immutable view) → post-apply limit
// check → first-mutation base persistence + log attach → append (durable)
// → publish (visible) → supervisor notify. The whole apply-to-publish
// span holds the entry's mutMu, so generations and log sequence numbers
// advance in lockstep and TTL retirement can never interleave with a
// half-applied mutation.
func (s *Server) handleMutation(w http.ResponseWriter, r *http.Request, op deltalog.Op) {
	id := r.PathValue("id")
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	m, err := deltalog.Decode(op, data, s.cfg.Limits)
	if err != nil {
		writeMutationError(w, err)
		return
	}
	entry, ok := s.store.networkEntry(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown network %q", id)
		return
	}
	entry.mutMu.Lock()
	defer entry.mutMu.Unlock()
	cur := entry.net // stable: all net writers hold mutMu
	next, err := deltalog.Apply(cur, m)
	if err != nil {
		writeMutationError(w, err)
		return
	}
	if err := s.cfg.Limits.CheckNetwork(next); err != nil {
		writeMutationError(w, err)
		return
	}
	dl := entry.dlog // writes happen under mutMu (held) + store.mu
	if dl == nil {
		dl, ok = s.openDeltaLog(w, id, entry, cur)
		if !ok {
			return
		}
	}
	if _, err := dl.Append(m); err != nil {
		// Degraded durability, same contract as a failed snapshot write:
		// keep serving the new view, count and log the failure. Replay
		// after a restart recovers only the durable contiguous prefix.
		s.persistFailure("append delta log for network "+id, err)
	}
	gen, ok := s.store.publishNetwork(id, entry, next)
	if !ok {
		// TTL eviction raced the mutation; the retire path purges any
		// record this request appended (it serializes on mutMu).
		writeError(w, http.StatusNotFound, "unknown network %q", id)
		return
	}
	s.metrics.networkMutations.Inc()
	if sup := s.ensureSupervisor(id, entry); sup != nil {
		sup.recordTouched(m.Touched())
		sup.poke()
	}
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "network mutated",
		slog.String("req", requestID(r.Context())),
		slog.String("network", id),
		slog.String("op", string(op)),
		slog.Int("generation", gen),
	)
	writeJSON(w, http.StatusOK, client.MutationResult{
		NetworkID:     id,
		Generation:    gen,
		Objects:       next.NumObjects(),
		Links:         next.NumEdges(),
		DeltaLogDepth: dl.Depth(),
	})
}

// openDeltaLog sets up a network's durability on first mutation: persist
// the base document (what recovery replays deltas against), open the
// log, and attach it to the entry — failing with 404 if the entry was
// evicted meanwhile. Disk trouble degrades to a memory-only log (counted
// via persistFailure), mirroring how fit persistence degrades.
func (s *Server) openDeltaLog(w http.ResponseWriter, id string, entry *networkEntry, base *hin.Network) (*deltalog.Log, bool) {
	blobs := s.blobs
	if blobs != nil {
		doc, err := base.MarshalJSON()
		if err == nil {
			err = blobs.Put(bucketNetworks, id, doc)
		}
		if err != nil {
			s.persistFailure("persist base network "+id, err)
			blobs = nil
		}
	}
	dl, err := deltalog.Open(blobs, id)
	if err != nil {
		s.persistFailure("open delta log for network "+id, err)
		dl, _ = deltalog.Open(nil, id) // memory-only: never fails
	}
	if !s.store.attachLog(id, entry, dl) {
		writeError(w, http.StatusNotFound, "unknown network %q", id)
		return nil, false
	}
	return dl, true
}

// writeMutationError maps the mutation trust boundary's typed errors onto
// status codes: limit overflows 413, malformed documents and semantic
// contradictions 400 — bad input is never a 5xx.
func writeMutationError(w http.ResponseWriter, err error) {
	var le *hin.LimitError
	if errors.As(err, &le) {
		writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
		return
	}
	var fe *deltalog.FormatError
	var ae *deltalog.ApplyError
	if errors.As(err, &fe) || errors.As(err, &ae) {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeError(w, http.StatusInternalServerError, "%v", err)
}

func (s *Server) handleSupervisorStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st := s.store
	st.mu.Lock()
	e, ok := st.networks[id]
	if !ok {
		st.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown network %q", id)
		return
	}
	e.lastUsed = st.now()
	gen := e.generation
	dlog := e.dlog
	sup := e.sup
	st.mu.Unlock()
	resp := client.SupervisorStatus{NetworkID: id, Generation: gen}
	if dlog != nil {
		resp.DeltaLogDepth = dlog.Depth()
	}
	if sup != nil {
		sup.status(&resp)
	}
	writeJSON(w, http.StatusOK, resp)
}

// retireNetwork finishes a TTL eviction outside the store lock: stop the
// supervisor (no goroutine leak), purge the delta log (no orphan records
// — the deletes fsync the bucket directory), and drop the persisted base.
// Taking mutMu serializes with any in-flight mutation that still holds
// the evicted entry: by the time the purge runs, that mutation has either
// fully appended (and its record is purged here) or failed its publish.
func (s *Server) retireNetwork(id string, e *networkEntry) {
	if e.sup != nil {
		e.sup.halt()
	}
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	if e.dlog != nil {
		if err := e.dlog.Purge(); err != nil {
			s.persistFailure("purge delta log for network "+id, err)
		}
		if s.blobs != nil {
			if err := s.blobs.Delete(bucketNetworks, id); err != nil && !errors.Is(err, diskstore.ErrNotFound) {
				s.persistFailure("drop base network "+id, err)
			}
		}
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "network evicted",
		slog.String("network", id),
	)
}
