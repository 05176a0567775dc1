package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
)

// AssignLink is one directed link from a query object to a known object of
// the model, under a named relation.
type AssignLink struct {
	Relation string  `json:"rel"` // relation name with a learned strength in the model
	To       string  `json:"to"`  // ID of a known (training) object
	Weight   float64 `json:"w"`   // positive finite link weight
}

// AssignTermCount is one sparse term-count entry of a categorical
// observation (same shape as the network document's term counts).
type AssignTermCount struct {
	Term  int     `json:"t"` // term index within the model's vocabulary
	Count float64 `json:"c"` // positive finite count
}

// AssignObject describes one out-of-sample object to fold into the model:
// links into the known network plus optional partial attribute
// observations. An object with neither links nor observations receives the
// uniform posterior.
type AssignObject struct {
	ID      string                       `json:"id,omitempty"`      // caller-side identifier echoed on the assignment
	Links   []AssignLink                 `json:"links,omitempty"`   // links to known objects
	Terms   map[string][]AssignTermCount `json:"terms,omitempty"`   // categorical attribute name → term counts
	Numeric map[string][]float64         `json:"numeric,omitempty"` // numeric attribute name → observations
}

// AssignRequest is the POST /v1/models/{id}/assign body.
type AssignRequest struct {
	Objects []AssignObject `json:"objects"` // query objects (bounded by the server's assign batch limit)
	// TopK sizes each assignment's top list (default 1, capped at the
	// model's K).
	TopK int `json:"top_k,omitempty"`
}

// ClusterProb is one entry of an assignment's top-k list.
type ClusterProb struct {
	Cluster int     `json:"cluster"` // cluster index
	P       float64 `json:"p"`       // posterior probability
}

// Assignment is one scored query object.
type Assignment struct {
	ID      string        `json:"id,omitempty"` // echo of the query object's id
	Cluster int           `json:"cluster"`      // argmax hard assignment
	Theta   []float64     `json:"theta"`        // soft posterior row (sums to 1)
	Top     []ClusterProb `json:"top"`          // top-k clusters, descending probability
	// FoldInIters is the number of fold-in iterations the query took: 1
	// when the posterior is closed-form (no attribute observations), more
	// when the query's own mixing proportions were iterated to a fixed
	// point.
	FoldInIters int `json:"fold_in_iters"`
}

// AssignResponse is the assign endpoint's reply.
type AssignResponse struct {
	ModelID     string       `json:"model_id"`    // the model the objects were folded into
	K           int          `json:"k"`           // the model's cluster count
	Assignments []Assignment `json:"assignments"` // one per query object, in request order
	// Batched is always false: the server runs one inference pass per
	// request. It stays for /v1 compatibility.
	//
	// Deprecated: always false; do not read it.
	Batched bool `json:"batched"`
}

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
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encode assign request: %w", err)
	}
	var out AssignResponse
	if err := c.do(ctx, http.MethodPost, "/v1/models/"+modelID+"/assign", payload, true, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
