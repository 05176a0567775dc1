package infer

import "genclus/internal/hin"

// The assign documents: the one JSON shape both serving surfaces speak —
// the daemon's POST /v1/models/{id}/assign body and reply, and the CLI's
// -assign queries file and output. A single decoder keeps the two surfaces
// from drifting apart, which is what makes their outputs bitwise
// comparable. The Go SDK (package client) names these types as
// AssignRequest, AssignObject, AssignLink, AssignTermCount, ClusterProb,
// Assignment and AssignResponse.

// RequestDoc is an assign request document. Clients encode it;
// DecodeRequest reads its shape straight into queries, building no
// RequestDoc.
type RequestDoc struct {
	// Objects are the query objects to fold in, bounded by the server's
	// assign batch limit.
	Objects []ObjectDoc `json:"objects"`
	// TopK sizes each assignment's top list (0 or absent means the
	// consumer's default of 1; capped at the model's K).
	TopK int `json:"top_k,omitempty"`
}

// ObjectDoc is one out-of-sample query object: links into the known
// network by relation name and known-object id, plus optional partial
// attribute observations as attribute-name keyed maps — the same idiom as
// the hin network document. An object with neither links nor observations
// receives the uniform posterior.
type ObjectDoc struct {
	// ID is an optional caller-side identifier echoed on the assignment.
	ID string `json:"id,omitempty"`
	// Links are the object's links to known objects.
	Links []LinkDoc `json:"links,omitempty"`
	// Terms maps categorical attribute name → sparse term counts.
	Terms map[string][]TermDoc `json:"terms,omitempty"`
	// Numeric maps numeric attribute name → observations.
	Numeric map[string][]float64 `json:"numeric,omitempty"`
}

// LinkDoc is one directed link from a query object to a known object,
// under a named relation.
type LinkDoc struct {
	// Relation is a relation name with a learned strength in the model.
	Relation string `json:"rel"`
	// To is the ID of a known (training) object.
	To string `json:"to"`
	// Weight is the positive finite link weight.
	Weight float64 `json:"w"`
}

// TermDoc is one sparse term count, in the {"t":term,"c":count} shape
// of the network document, which declares it as hin.TermCount.
type TermDoc = hin.TermCount

// ClusterProbDoc is one entry of an assignment's top-k list.
type ClusterProbDoc struct {
	// Cluster is the cluster index.
	Cluster int `json:"cluster"`
	// P is the posterior probability of the cluster.
	P float64 `json:"p"`
}

// AssignmentDoc is one scored query object in the response document shape.
type AssignmentDoc struct {
	// ID echoes the query object's id.
	ID string `json:"id,omitempty"`
	// Cluster is the argmax hard assignment.
	Cluster int `json:"cluster"`
	// Theta is the soft posterior row (sums to 1).
	Theta []float64 `json:"theta"`
	// Top lists the top-k clusters, descending probability.
	Top []ClusterProbDoc `json:"top"`
	// FoldInIters is the number of fold-in iterations the query took: 1
	// when the posterior is closed-form (no attribute observations), more
	// when the query's own mixing proportions were iterated to a fixed
	// point.
	FoldInIters int `json:"fold_in_iters"`
}

// ResponseDoc is the daemon's assign reply document.
type ResponseDoc struct {
	// ModelID is the model the objects were folded into.
	ModelID string `json:"model_id"`
	// K is the model's cluster count.
	K int `json:"k"`
	// Assignments holds one assignment per query object, in request order.
	Assignments []AssignmentDoc `json:"assignments"`
	// Batched is always false: the server runs one inference pass per
	// request. It stays for /v1 compatibility.
	//
	// Deprecated: always false; do not read it.
	Batched bool `json:"batched"`
}

// AssignmentDocs deep-copies engine results out of the arena into response
// documents, trimming each top list to topK entries (values ≥ the engine's
// TopK keep the full list).
func AssignmentDocs(res []Assignment, topK int) []AssignmentDoc {
	out := make([]AssignmentDoc, len(res))
	for i, a := range res {
		top := a.Top
		if topK >= 0 && topK < len(top) {
			top = top[:topK]
		}
		doc := AssignmentDoc{
			ID:          a.ID,
			Cluster:     a.Cluster,
			Theta:       append([]float64(nil), a.Theta...),
			Top:         make([]ClusterProbDoc, len(top)),
			FoldInIters: a.FoldInIters,
		}
		for j, cp := range top {
			doc.Top[j] = ClusterProbDoc{Cluster: cp.Cluster, P: cp.P}
		}
		out[i] = doc
	}
	return out
}
