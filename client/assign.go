package client

import (
	"context"
	"fmt"
	"net/http"

	"genclus/internal/infer"
)

// The assign request and assignment documents are declared once, in
// internal/infer, whose decoder genclusd and the genclus CLI's offline
// -assign mode share; the SDK names them here.

// AssignLink is one directed link from a query object to a known object of
// the model, under a named relation.
type AssignLink = infer.LinkDoc

// AssignTermCount is one sparse term-count entry of a categorical
// observation (same shape as the network document's term counts).
type AssignTermCount = infer.TermDoc

// AssignObject describes one out-of-sample object to fold into the model:
// links into the known network plus optional partial attribute
// observations. An object with neither links nor observations receives the
// uniform posterior.
type AssignObject = infer.ObjectDoc

// AssignRequest is the POST /v1/models/{id}/assign body.
type AssignRequest = infer.RequestDoc

// ClusterProb is one entry of an assignment's top-k list.
type ClusterProb = infer.ClusterProbDoc

// Assignment is one scored query object.
type Assignment = infer.AssignmentDoc

// AssignResponse is the assign endpoint's reply.
type AssignResponse = infer.ResponseDoc

// AssignStats are the server's online-inference counters from /healthz:
// request/object volume, engine passes, and per-model engine cache
// effectiveness.
type AssignStats struct {
	Requests int64 `json:"requests"` // assign requests served
	Objects  int64 `json:"objects"`  // query objects scored
	// Deprecated: BatchedRequests is always 0, kept for /v1 compatibility.
	BatchedRequests   int64 `json:"batched_requests"`
	EnginePasses      int64 `json:"engine_passes"`       // inference passes executed, one per request
	EngineCacheHits   int64 `json:"engine_cache_hits"`   // engine cache hits (by snapshot digest)
	EngineCacheMisses int64 `json:"engine_cache_misses"` // engine cache misses (engines built)
	ShedRequests      int64 `json:"shed_requests"`       // requests rejected 429 by admission control
}

// AssignObjects folds a batch of new objects into a registered model
// without refitting (POST /v1/models/{id}/assign): each object is
// described by links to known objects and optional partial attribute
// observations, and receives the model's posterior — soft memberships plus
// top-k hard assignments. Assignment is read-only and deterministic, so
// the call retries on transient failures like other idempotent requests.
// Bad input comes back as an *APIError with a 4xx status (413 for batch or
// per-object limit overflows, 400 for unresolvable names or malformed
// values).
func (c *Client) AssignObjects(ctx context.Context, modelID string, req AssignRequest) (*AssignResponse, error) {
	// 512 bytes per object holds a paper with its links and text, so the
	// body is usually written without regrowing its buffer.
	payload, err := infer.AppendRequest(make([]byte, 0, 512*len(req.Objects)), &req)
	if err != nil {
		return nil, fmt.Errorf("client: encode assign request: %w", err)
	}
	var out AssignResponse
	if err := c.do(ctx, http.MethodPost, "/v1/models/"+modelID+"/assign", payload, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
