package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"genclus/client"
	"genclus/internal/core"
	"genclus/internal/snapshot"
	diskstore "genclus/internal/store"
)

// The model registry: every finished fit (and every imported snapshot)
// becomes an addressable model that outlives the job TTL. Models are the
// durable half of the service — with -data-dir they survive restarts and
// SIGKILL — and the warm-start substrate: a job submitted with
// warm_start_from_model seeds its fit from a registered model exactly as
// warm_start_from seeds it from a finished job, except the source never
// expires. The registry caps itself at Config.MaxModels, evicting the
// oldest snapshot (memory and disk) when a new registration overflows it.

// modelEntry is one registered model: the in-memory fitted state plus the
// identity and provenance the registry serves. The canonical snapshot bytes
// are not retained in memory — export re-reads the data dir or re-encodes
// (deterministically, so digest and bytes are stable either way).
type modelEntry struct {
	id      string
	model   *core.Model
	meta    map[string]string // snapshot meta (provenance; re-encoded verbatim)
	created time.Time
	digest  string // hex SHA-256 of the canonical snapshot bytes
	size    int64  // canonical snapshot length in bytes

	jobID     string // source job, "" for imported models
	networkID string // source network, "" for imported models
}

// modelInfo returns the registry's wire representation of one model,
// served on the list, get and import responses.
func (s *Server) modelInfo(e *modelEntry) client.ModelInfo {
	return client.ModelInfo{
		ID:            e.id,
		K:             e.model.K,
		Objects:       len(e.model.Theta),
		JobID:         e.jobID,
		NetworkID:     e.networkID,
		Created:       e.created.UTC().Format(time.RFC3339Nano),
		Digest:        e.digest,
		SizeBytes:     e.size,
		OptionsDigest: e.meta[metaOptionsDigest],
		EMIterations:  e.model.EMIterations,
		Precision:     snapshot.FormatPrecision(e.model.Precision),
	}
}

// snapshot meta keys the daemon records at export time. The epsilon key
// (the fit's Θ floor, which snapshot.Decode restores as Result.Epsilon) is
// owned by the snapshot package: see snapshot.MetaEpsilon.
const (
	metaCreated       = "created"
	metaJobID         = "job_id"
	metaNetworkID     = "network_id"
	metaOptionsDigest = "options_digest"
	// metaNetworkGeneration is base-generation provenance: the source
	// network's mutation generation the fit ran against (0 for
	// never-mutated networks). Free-form meta — no codec change — so
	// older snapshots simply lack the key.
	metaNetworkGeneration = "network_generation"
)

// snapshotLimits derives the import trust-boundary caps from the server's
// upload configuration: a snapshot may not claim more objects, attributes
// or vocabulary than an uploaded network could, nor a K above the job cap.
func (s *Server) snapshotLimits() snapshot.Limits {
	lim := snapshot.DefaultLimits()
	lim.MaxObjects = s.cfg.Limits.MaxObjects
	lim.MaxK = s.cfg.MaxK
	lim.MaxAttributes = s.cfg.Limits.MaxAttributes
	lim.MaxVocab = s.cfg.Limits.MaxVocab
	return lim
}

// newModelEntry builds the registry entry for one snapshot and its
// canonical bytes. The job and network ids come from the snapshot meta.
func newModelEntry(id string, snap *snapshot.Snapshot, data []byte, created time.Time) *modelEntry {
	return &modelEntry{
		id:        id,
		model:     snap.Model,
		meta:      snap.Meta,
		created:   created,
		digest:    snapshot.DataDigest(data),
		size:      int64(len(data)),
		jobID:     snap.Meta[metaJobID],
		networkID: snap.Meta[metaNetworkID],
	}
}

// registerModel encodes the fitted model and registers it under a fresh id
// (see persistAndAdmit). Its meta carries the source job and network.
func (s *Server) registerModel(m *core.Model, meta map[string]string, created time.Time) (*modelEntry, error) {
	snap := &snapshot.Snapshot{Model: m, Meta: meta}
	data, err := snapshot.Encode(snap)
	if err != nil {
		return nil, err
	}
	e := newModelEntry(newID("mdl"), snap, data, created)
	s.persistAndAdmit(e, data, "persist model "+e.id)
	return e, nil
}

// persistAndAdmit writes the snapshot bytes when a data dir is configured
// and admits the entry. A failed disk write degrades to memory-only
// registration (counted and logged via persistFailure as what) — the model
// stays addressable until the next restart rather than vanishing because a
// volume filled up.
func (s *Server) persistAndAdmit(e *modelEntry, data []byte, what string) {
	if s.blobs != nil {
		if err := s.blobs.Put(bucketModels, e.id, data); err != nil {
			s.persistFailure(what, err)
		}
	}
	s.admitModel(e)
}

// admitModel adds the entry to the registry and evicts overflow (memory,
// disk, and cached inference engine) beyond Config.MaxModels, oldest
// first.
func (s *Server) admitModel(e *modelEntry) {
	for _, old := range s.store.addModel(e, s.cfg.MaxModels) {
		if s.blobs != nil {
			_ = s.blobs.Delete(bucketModels, old.id)
		}
		s.dropEngine(old.digest)
	}
}

// exportBytes returns the canonical snapshot bytes for a registry entry:
// the persisted file when a data dir is configured (falling back to
// re-encoding if the file went missing), a fresh deterministic encoding
// otherwise.
func (s *Server) exportBytes(e *modelEntry) ([]byte, error) {
	if s.blobs != nil {
		data, err := s.blobs.Get(bucketModels, e.id)
		if err == nil {
			return data, nil
		}
		if !errors.Is(err, diskstore.ErrNotFound) {
			var ce *diskstore.CorruptError
			if !errors.As(err, &ce) {
				return nil, err
			}
		}
	}
	return snapshot.Encode(&snapshot.Snapshot{Model: e.model, Meta: e.meta})
}

func (s *Server) handleListModels(w http.ResponseWriter, r *http.Request) {
	entries := s.store.listModels()
	models := make([]client.ModelInfo, 0, len(entries))
	for _, e := range entries {
		models = append(models, s.modelInfo(e))
	}
	writeJSON(w, http.StatusOK, map[string][]client.ModelInfo{"models": models})
}

func (s *Server) lookupModel(w http.ResponseWriter, r *http.Request) (*modelEntry, bool) {
	id := r.PathValue("id")
	e, ok := s.store.model(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown model %q", id)
		return nil, false
	}
	return e, true
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookupModel(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.modelInfo(e))
}

func (s *Server) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.store.model(id)
	if !ok || !s.store.deleteModel(id) {
		writeError(w, http.StatusNotFound, "unknown model %q", id)
		return
	}
	// Drop the cached inference engine too (unless another registry entry
	// shares the snapshot digest) so a deleted model's memory is actually
	// released rather than pinned by the assign cache.
	s.dropEngine(e.digest)
	if s.blobs != nil {
		if err := s.blobs.Delete(bucketModels, id); err != nil && !errors.Is(err, diskstore.ErrNotFound) {
			// The registry entry is gone either way; surface the disk state
			// so an operator notices a sick volume.
			writeError(w, http.StatusInternalServerError, "model deleted from registry but not from disk: %v", err)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleExportModel(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookupModel(w, r)
	if !ok {
		return
	}
	data, err := s.exportBytes(e)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "export model: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.gcsnap", e.id))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

func (s *Server) handleImportModel(w http.ResponseWriter, r *http.Request) {
	data, ok := s.readBody(w, r)
	if !ok {
		return
	}
	snap, err := snapshot.Decode(data, s.snapshotLimits())
	if err != nil {
		code := http.StatusBadRequest
		var lim *snapshot.LimitError
		if errors.As(err, &lim) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, "%v", err)
		return
	}
	e := newModelEntry(newID("mdl"), snap, data, s.cfg.now())
	// job_id/network_id in the snapshot meta are provenance from the
	// exporting process; they do not name jobs on THIS server, so the
	// registry row leaves them blank and serves the meta digest only.
	e.jobID, e.networkID = "", ""
	if s.blobs != nil {
		// Persist the uploaded bytes verbatim: the decoder only accepts
		// canonical encodings, so these are exactly the bytes a later
		// export must return.
		if err := s.blobs.Put(bucketModels, e.id, data); err != nil {
			writeError(w, http.StatusInternalServerError, "persist model: %v", err)
			return
		}
	}
	s.admitModel(e)
	writeJSON(w, http.StatusCreated, s.modelInfo(e))
}
