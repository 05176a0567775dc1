package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"genclus/internal/deltalog"
)

// The mutation elements are declared once, in internal/deltalog (its
// link, term count and object are internal/hin's network elements), whose
// decoder genclusd runs on every mutation body; the SDK names them here.

// Edge is one link to add to a stored network: object IDs, a relation name
// (which may be new to the network) and a positive finite weight.
type Edge = deltalog.Link

// EdgeRef names an edge to remove by its (from, relation, to) triple.
// Removal deletes every parallel edge matching the triple; a triple that
// matches no edge is a 400.
type EdgeRef = deltalog.EdgeRef

// TermCount is one sparse categorical observation entry, in the network
// document's compact {"t":term,"c":count} shape.
type TermCount = deltalog.TermCount

// NewObject is one object to add to a stored network: an ID new to the
// network, a type, and optional attribute observations keyed by declared
// attribute name.
type NewObject = deltalog.Object

// AttributePatch replaces one existing object's observations for the named
// attributes; an attribute present with an empty list is cleared.
type AttributePatch = deltalog.AttrPatch

// MutationResult reports one applied mutation: the network's new view
// generation (monotonic from 0 at upload, +1 per mutation) and its size
// after the mutation. In-flight fits and assigns keep the generation they
// started with; only work submitted after the mutation sees the new view.
type MutationResult struct {
	NetworkID  string `json:"network_id"` // the mutated network
	Generation int    `json:"generation"` // view generation this mutation produced
	Objects    int    `json:"objects"`    // |V| after the mutation
	Links      int    `json:"links"`      // |E| after the mutation
	// DeltaLogDepth is the number of mutations in the network's crash-safe
	// delta log after this one (replayed on restart; purged when the
	// network expires).
	DeltaLogDepth int `json:"delta_log_depth"`
}

// SupervisorStatus is the continuous-clustering supervisor's report for
// one mutated network (GET /v1/networks/{id}/supervisor): where the live
// view is, how far the last refit lags it, the current drift estimate, and
// the supervisor's refit counters.
type SupervisorStatus struct {
	NetworkID string `json:"network_id"` // the supervised network
	// Active reports whether a supervisor goroutine is watching the
	// network (one starts with its first mutation and stops when the
	// network expires; never with supervision disabled).
	Active     bool `json:"active"`
	Generation int  `json:"generation"` // current live view generation
	// DeltaLogDepth is the number of mutation records the network's delta
	// log has taken since upload; refits do not reset it.
	DeltaLogDepth int `json:"delta_log_depth"`
	// LastRefitGeneration is the view generation of the newest completed
	// (or abandoned) auto-refit; PendingMutations = Generation − this.
	LastRefitGeneration int `json:"last_refit_generation"`
	PendingMutations    int `json:"pending_mutations"` // mutations not yet covered by a refit
	// DriftScore is the latest fold-in drift estimate in [0, 1]: the mean
	// total-variation distance between the current model's posterior for a
	// sample of mutated objects and their pre-mutation posteriors (objects
	// the model has never seen score 1).
	DriftScore float64 `json:"drift_score"`
	// RefitJobID is the in-flight auto-refit job, if one is running.
	RefitJobID string `json:"refit_job_id,omitempty"`
	// LastModelID is the model published by the newest successful
	// auto-refit — the handle /assign callers should roll forward to.
	LastModelID     string `json:"last_model_id,omitempty"`
	RefitsTriggered int64  `json:"refits_triggered"` // auto-refits scheduled
	RefitsSucceeded int64  `json:"refits_succeeded"` // auto-refits that published a model
	RefitsFailed    int64  `json:"refits_failed"`    // auto-refits that errored or were abandoned
}

// MutationStats are the server's streaming-mutation counters from
// /healthz: mutation volume, aggregate delta-log depth, live supervisors,
// the latest drift score, and fleet-wide auto-refit counters.
type MutationStats struct {
	Mutations     int64 `json:"mutations"`       // mutations applied since start
	DeltaLogDepth int64 `json:"delta_log_depth"` // logged mutations across all live networks
	Supervisors   int64 `json:"supervisors"`     // live supervisor goroutines
	// DriftScore is the most recent drift score any supervisor computed,
	// whichever network it watches — not a maximum across networks.
	DriftScore      float64 `json:"drift_score"`
	RefitsTriggered int64   `json:"refits_triggered"` // auto-refits scheduled
	RefitsSucceeded int64   `json:"refits_succeeded"` // auto-refits that published a model
	RefitsFailed    int64   `json:"refits_failed"`    // auto-refits that errored or were abandoned
}

// AddEdges adds links to a stored network (POST /v1/networks/{id}/edges),
// publishing a new view generation. Relations may be new to the network;
// both endpoints must exist. Like SubmitJob, mutations are NOT retried: a
// retry after an ambiguous failure could apply the mutation twice (adds
// are not idempotent — a repeated add duplicates parallel edges).
func (c *Client) AddEdges(ctx context.Context, networkID string, edges []Edge) (*MutationResult, error) {
	return c.mutate(ctx, http.MethodPost, networkID, "edges", deltalog.Mutation{Add: edges})
}

// RemoveEdges removes edges from a stored network by (from, relation, to)
// triple (POST /v1/networks/{id}/edges), deleting every parallel edge
// matching each triple. A triple matching no edge fails the whole mutation
// with a 400 and no new generation is published. Not retried, like all
// mutations.
func (c *Client) RemoveEdges(ctx context.Context, networkID string, refs []EdgeRef) (*MutationResult, error) {
	return c.mutate(ctx, http.MethodPost, networkID, "edges", deltalog.Mutation{Remove: refs})
}

// AddObjects adds objects — optionally with attribute observations and
// links touching them — to a stored network (POST
// /v1/networks/{id}/objects). Links may connect new objects to existing
// ones or to each other. Object IDs must be new to the network. Not
// retried, like all mutations.
func (c *Client) AddObjects(ctx context.Context, networkID string, objects []NewObject, links []Edge) (*MutationResult, error) {
	return c.mutate(ctx, http.MethodPost, networkID, "objects", deltalog.Mutation{Objects: objects, Links: links})
}

// PatchAttributes replaces attribute observations on existing objects
// (PATCH /v1/networks/{id}/attributes). An attribute set to an empty list
// is cleared — the object becomes incomplete in that attribute and its
// memberships rest on links and its remaining observations. Not retried,
// like all mutations.
func (c *Client) PatchAttributes(ctx context.Context, networkID string, patches []AttributePatch) (*MutationResult, error) {
	return c.mutate(ctx, http.MethodPatch, networkID, "attributes", deltalog.Mutation{Set: patches})
}

// mutate issues one mutation request — the body is a deltalog.Mutation
// without its op, which the endpoint implies — and decodes the
// applied-generation response. Validation failures come back as
// *APIError: 400 for malformed or contradictory mutations, 413 for
// mutations that would push the network past the server's limits, 404
// for an unknown network.
func (c *Client) mutate(ctx context.Context, method, networkID, surface string, doc deltalog.Mutation) (*MutationResult, error) {
	payload, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("client: encode mutation: %w", err)
	}
	var out MutationResult
	if err := c.do(ctx, method, "/v1/networks/"+networkID+"/"+surface, payload, false, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SupervisorStatus fetches the continuous-clustering supervisor's report
// for a mutated network (GET /v1/networks/{id}/supervisor). A network that
// has never been mutated answers Active false with zero counters. The
// call is read-only and retried on transient failures.
func (c *Client) SupervisorStatus(ctx context.Context, networkID string) (*SupervisorStatus, error) {
	var out SupervisorStatus
	if err := c.do(ctx, http.MethodGet, "/v1/networks/"+networkID+"/supervisor", nil, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
