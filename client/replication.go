package client

import (
	"context"
	"net/http"
)

// ReplicationStats is the server's replication sync-state block (on
// /healthz and inside ReplicationStatus). On a primary every field is zero
// and Active is false.
type ReplicationStats struct {
	Active  bool   `json:"active"`            // true in replica mode
	Primary string `json:"primary,omitempty"` // followed primary base URL
	// LagSeconds is the staleness bound: seconds since the replica's last
	// successful sync pass (since startup before the first one).
	LagSeconds float64 `json:"lag_seconds"`
	// Syncs counts completed sync passes.
	Syncs uint64 `json:"syncs"`
	// SyncErrors counts failed sync passes.
	SyncErrors uint64 `json:"sync_errors"`
	// ModelsSynced counts models the sync loop installed.
	ModelsSynced uint64 `json:"models_synced"`
	// ModelsDeleted counts models removed because the primary dropped them.
	ModelsDeleted uint64 `json:"models_deleted"`
	// ConsecutiveFailures is the current failure streak driving the sync
	// loop's backoff.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// LastSync is the RFC 3339 time of the last successful pass.
	LastSync string `json:"last_sync,omitempty"`
	// LastError is the message of the last failed pass ("" after a
	// success).
	LastError string `json:"last_error,omitempty"`
}

// ReplicationStatus is the GET /v1/replication body: the node's role, its
// local registry size, and (replicas only) the live sync state.
type ReplicationStatus struct {
	Mode   string           `json:"mode"`   // "primary" or "replica"
	Models int              `json:"models"` // local registry size
	Sync   ReplicationStats `json:"sync"`   // sync state (zero on a primary)
}

// Replication fetches the node's replication role and sync state. Use it
// to tell a primary from a replica, and to watch a replica's lag and error
// counters converge.
func (c *Client) Replication(ctx context.Context) (*ReplicationStatus, error) {
	var out ReplicationStatus
	if err := c.do(ctx, http.MethodGet, "/v1/replication", nil, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
