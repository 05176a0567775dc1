package server

import (
	"errors"
	"net/http"

	"genclus/client"
	"genclus/internal/replica"
	"genclus/internal/snapshot"
	diskstore "genclus/internal/store"
)

// Replica mode: with Config.ReplicaOf set, this server is a read-only
// follower of another genclusd. A replica.Syncer reconciles the local model
// registry against the primary's /v1/models listing (pull-by-digest over
// /v1/models/{id}/export, bytes verified against the advertised SHA-256
// and decoded behind the same trust-boundary limits an import faces),
// mutating routes answer a typed 403 (client.CodeReadOnlyReplica), and
// /assign serves from the synced registry — a fleet of replicas scales
// fold-in inference horizontally while fits stay on the primary. Sync
// state is surfaced on /healthz, /metrics and GET /v1/replication; with a
// data dir the synced models persist, so a restarted replica resumes from
// its local registry and re-downloads nothing whose digest still matches.

// replicaRegistry adapts the server's model registry to replica.Registry.
// Installs run the full import trust boundary (snapshot.Decode checks CRC,
// bounds and canonical form) and the usual registration path, so a synced
// model persists, admits through MaxModels eviction, and refreshes the
// assign-engine cache exactly like an imported one.
type replicaRegistry struct{ s *Server }

func (r replicaRegistry) LocalModels() map[string]string {
	return r.s.store.modelDigests()
}

func (r replicaRegistry) Install(id string, data []byte) error {
	s := r.s
	snap, err := snapshot.Decode(data, s.snapshotLimits())
	if err != nil {
		return err
	}
	old, _ := s.store.model(id)
	// The meta's job/network ids are the PRIMARY's provenance; the registry
	// row carries them so listings mirror the primary's. A failed disk write
	// keeps the model serveable in memory; the next restart re-pulls it.
	e := newModelEntry(id, snap, data, s.cfg.now())
	s.persistAndAdmit(e, data, "persist synced model "+id)
	if old != nil && old.digest != e.digest {
		// The id moved to new bytes; release the stale engine unless another
		// entry still serves the old digest.
		s.dropEngine(old.digest)
	}
	return nil
}

func (r replicaRegistry) Remove(id string) error {
	s := r.s
	e, ok := s.store.model(id)
	if !ok || !s.store.deleteModel(id) {
		return nil
	}
	s.dropEngine(e.digest)
	if s.blobs != nil {
		if err := s.blobs.Delete(bucketModels, id); err != nil && !errors.Is(err, diskstore.ErrNotFound) {
			return err
		}
	}
	return nil
}

// startReplication builds and starts the sync loop (New calls it last, so
// the registry adapter sees a fully-wired server).
func (s *Server) startReplication() error {
	sy, err := replica.New(replica.Config{
		Primary:  s.cfg.ReplicaOf,
		Registry: replicaRegistry{s},
		Interval: s.cfg.SyncInterval,
		// A replica refuses exports beyond what the primary could have
		// accepted as an upload.
		MaxSnapshotBytes: s.cfg.MaxBodyBytes,
		Logger:           s.log,
		Tracer:           s.tracer,
		Now:              s.cfg.now,
	})
	if err != nil {
		return err
	}
	s.syncer = sy
	sy.Start()
	return nil
}

// replicationStats snapshots the syncer state (zero block on a primary).
func (s *Server) replicationStats() client.ReplicationStats {
	if s.syncer == nil {
		return client.ReplicationStats{}
	}
	return s.syncer.Status()
}

func (s *Server) handleReplication(w http.ResponseWriter, r *http.Request) {
	mode := "primary"
	if s.cfg.ReplicaOf != "" {
		mode = "replica"
	}
	writeJSON(w, http.StatusOK, client.ReplicationStatus{
		Mode:   mode,
		Models: s.store.numModels(),
		Sync:   s.replicationStats(),
	})
}
