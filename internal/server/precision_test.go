package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"genclus/client"
	"genclus/internal/core"
	"genclus/internal/infer"
	"genclus/internal/snapshot"
)

// TestJobRejectsUnknownPrecision: an unknown precision string in the job
// options is a caller mistake — the typed *core.PrecisionError from
// Options.Validate must surface as 400, before any work is queued.
func TestJobRejectsUnknownPrecision(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	network, _ := testNetworkJSON(t, 6, 3)
	netID := uploadNetwork(t, ts, network)
	bad := "float16"
	payload, _ := json.Marshal(client.JobSpec{NetworkID: netID, K: 2, Options: &client.JobOptions{Precision: &bad}})
	code, body := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/jobs", payload)
	if code != http.StatusBadRequest {
		t.Fatalf("job with precision %q: status %d, want 400 (%s)", bad, code, body)
	}
}

// TestJobPrecisionEndToEnd drives the float32 storage mode through the whole
// daemon surface: the job spec carries it, the registry reports it on both
// the single-model and list responses, the exported snapshot stores it (flag
// bit + provenance meta), and the assign engine honors it — reproducing the
// float32 fit's training Θ rows bit for bit, which only works if fold-in
// rounds posterior rows exactly as the fit rounds Θ.
func TestJobPrecisionEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	network, _ := testNetworkJSON(t, 12, 3)
	netID := uploadNetwork(t, ts, network)

	// Options mirror TestAssignCustomEpsilonBitwise: run EM to an exact
	// fixed point so training-object assignment has a stationary target.
	outer, em, seeds := 1, 3000, 1
	emTol := 1e-300
	learn := false
	prec := "float32"
	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: &client.JobOptions{
		OuterIters: &outer, EMIters: &em, EMTol: &emTol, InitSeeds: &seeds,
		LearnGamma: &learn, Precision: &prec,
	}})
	status := waitForState(t, ts, jobID, client.StateDone)
	res := fetchResult(t, ts, jobID)
	if res.EMIterations >= em {
		t.Fatalf("float32 fit did not reach an exact fixed point (%d EM iterations)", res.EMIterations)
	}
	for _, obj := range res.Objects {
		for k, x := range obj.Theta {
			if float64(float32(x)) != x {
				t.Fatalf("object %s theta[%d] = %v not float32-representable", obj.ID, k, x)
			}
		}
	}

	// Registry responses carry the precision, on GET and on the list.
	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/models/"+status.ModelID, nil)
	if code != http.StatusOK {
		t.Fatalf("get model: %d", code)
	}
	var mr client.ModelInfo
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Precision != "float32" {
		t.Fatalf("model precision = %q, want float32", mr.Precision)
	}
	code, body = doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/models", nil)
	if code != http.StatusOK {
		t.Fatalf("list models: %d", code)
	}
	var list modelsResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range list.Models {
		if m.ID == status.ModelID {
			found = true
			if m.Precision != "float32" {
				t.Fatalf("listed precision = %q, want float32", m.Precision)
			}
		}
	}
	if !found {
		t.Fatalf("model %s missing from list", status.ModelID)
	}

	// The exported snapshot stores float32 (wire flag) and records the
	// precision in its provenance meta.
	code, raw := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/models/"+status.ModelID+"/export", nil)
	if code != http.StatusOK {
		t.Fatalf("export: %d", code)
	}
	decoded, err := snapshot.Decode(raw, snapshot.DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Model.Precision != core.PrecisionFloat32 {
		t.Fatalf("snapshot precision = %q, want float32", decoded.Model.Precision)
	}
	if got := decoded.Meta[snapshot.MetaPrecision]; got != "float32" {
		t.Fatalf("meta precision = %q, want float32", got)
	}

	// Assigning the training objects reproduces the float32 Θ rows bitwise.
	req := infer.RequestDoc{}
	for _, obj := range res.Objects {
		req.Objects = append(req.Objects, trainingAssignObject(obj, network, t))
	}
	code, body = postAssign(t, ts, status.ModelID, req)
	if code != http.StatusOK {
		t.Fatalf("assign: %d: %s", code, body)
	}
	var resp client.AssignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	for i, a := range resp.Assignments {
		for k, x := range a.Theta {
			if x != res.Objects[i].Theta[k] {
				t.Fatalf("object %s theta[%d]: assigned %v, fitted %v (precision not honored by fold-in?)",
					a.ID, k, x, res.Objects[i].Theta[k])
			}
		}
	}

	// A default fit keeps reporting float64 — the precision field exists on
	// every response, not just float32 models.
	defID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: &client.JobOptions{
		OuterIters: &outer, InitSeeds: &seeds,
	}})
	defStatus := waitForState(t, ts, defID, client.StateDone)
	code, body = doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/models/"+defStatus.ModelID, nil)
	if code != http.StatusOK {
		t.Fatalf("get default model: %d", code)
	}
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Precision != "float64" {
		t.Fatalf("default model precision = %q, want float64", mr.Precision)
	}
}

// TestImportPreservesPrecision: importing a float32 snapshot registers a
// float32 model (the registry field comes from the wire flag, not meta), and
// the export round-trips the exact bytes.
func TestImportPreservesPrecision(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	network, _ := testNetworkJSON(t, 8, 3)
	netID := uploadNetwork(t, ts, network)
	outer, seeds := 1, 1
	prec := "float32"
	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: &client.JobOptions{
		OuterIters: &outer, InitSeeds: &seeds, Precision: &prec,
	}})
	status := waitForState(t, ts, jobID, client.StateDone)
	code, raw := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/models/"+status.ModelID+"/export", nil)
	if code != http.StatusOK {
		t.Fatalf("export: %d", code)
	}

	code, body := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/import", raw)
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("import: %d: %s", code, body)
	}
	var imported client.ModelInfo
	if err := json.Unmarshal(body, &imported); err != nil {
		t.Fatal(err)
	}
	if imported.Precision != "float32" {
		t.Fatalf("imported precision = %q, want float32", imported.Precision)
	}
	code, back := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/models/"+imported.ID+"/export", nil)
	if code != http.StatusOK {
		t.Fatalf("re-export: %d", code)
	}
	if string(back) != string(raw) {
		t.Fatal("float32 snapshot bytes changed across import/export")
	}
}
