package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"genclus"
	"genclus/client"
	"genclus/internal/infer"
)

// assignFixture fits one model on the standard two-topic test network and
// returns its model id plus the finished job's result (for cross-checking
// assignments against the fitted memberships).
func assignFixture(t *testing.T, ts *httptest.Server) (modelID string, res client.Result) {
	t.Helper()
	jobID, status := finishJob(t, ts, 1)
	if status.ModelID == "" {
		t.Fatal("finished job has no model id")
	}
	return status.ModelID, fetchResult(t, ts, jobID)
}

// trainingAssignObject rebuilds one training object's links and text
// observation as an assign query, reading them straight out of the fitted
// result's network document counterpart.
func trainingAssignObject(obj client.ObjectResult, network []byte, t *testing.T) infer.ObjectDoc {
	t.Helper()
	var doc struct {
		Objects []struct {
			ID    string                     `json:"id"`
			Terms map[string][]infer.TermDoc `json:"terms"`
		} `json:"objects"`
		Links []struct {
			From string  `json:"from"`
			To   string  `json:"to"`
			Rel  string  `json:"rel"`
			W    float64 `json:"w"`
		} `json:"links"`
	}
	if err := json.Unmarshal(network, &doc); err != nil {
		t.Fatal(err)
	}
	out := infer.ObjectDoc{ID: obj.ID}
	for _, o := range doc.Objects {
		if o.ID == obj.ID {
			out.Terms = o.Terms
		}
	}
	for _, l := range doc.Links {
		if l.From == obj.ID {
			out.Links = append(out.Links, infer.LinkDoc{Relation: l.Rel, To: l.To, Weight: l.W})
		}
	}
	return out
}

func postAssign(t *testing.T, ts *httptest.Server, modelID string, req infer.RequestDoc) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/"+modelID+"/assign", payload)
}

// TestAssignEndpoint drives the happy path: fit, then fold the training
// objects back in over HTTP and check every assignment lands on its fitted
// cluster with a sane posterior, the top list respects top_k, and repeated
// identical requests return byte-identical assignments (the determinism
// contract at the API surface).
func TestAssignEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	network, _ := testNetworkJSON(t, 12, 1)
	netID := uploadNetwork(t, ts, network)
	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: quickOpts(1, 1)})
	status := waitForState(t, ts, jobID, client.StateDone)
	res := fetchResult(t, ts, jobID)

	req := infer.RequestDoc{TopK: 2}
	for _, obj := range res.Objects {
		req.Objects = append(req.Objects, trainingAssignObject(obj, network, t))
	}
	code, body := postAssign(t, ts, status.ModelID, req)
	if code != http.StatusOK {
		t.Fatalf("assign: status %d: %s", code, body)
	}
	var resp client.AssignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ModelID != status.ModelID || resp.K != 2 {
		t.Fatalf("assign response header: %+v", resp)
	}
	if len(resp.Assignments) != len(res.Objects) {
		t.Fatalf("got %d assignments for %d objects", len(resp.Assignments), len(res.Objects))
	}
	for i, a := range resp.Assignments {
		want := res.Objects[i]
		if a.ID != want.ID {
			t.Fatalf("assignment %d echoes id %q, want %q", i, a.ID, want.ID)
		}
		if a.Cluster != want.Cluster {
			t.Errorf("object %s assigned to cluster %d, fitted %d (theta %v vs %v)",
				a.ID, a.Cluster, want.Cluster, a.Theta, want.Theta)
		}
		if len(a.Theta) != 2 || len(a.Top) != 2 {
			t.Fatalf("object %s: theta %v top %v, want K=2 rows", a.ID, a.Theta, a.Top)
		}
		if a.Top[0].P < a.Top[1].P || a.Top[0].Cluster != a.Cluster {
			t.Fatalf("object %s: top list %v inconsistent with cluster %d", a.ID, a.Top, a.Cluster)
		}
		if a.FoldInIters < 1 {
			t.Fatalf("object %s: fold_in_iters %d", a.ID, a.FoldInIters)
		}
	}

	// Identical request ⇒ identical bytes' worth of assignments.
	code2, body2 := postAssign(t, ts, status.ModelID, req)
	if code2 != http.StatusOK {
		t.Fatalf("second assign: %d", code2)
	}
	var resp2 client.AssignResponse
	if err := json.Unmarshal(body2, &resp2); err != nil {
		t.Fatal(err)
	}
	for i := range resp.Assignments {
		for k := range resp.Assignments[i].Theta {
			if resp.Assignments[i].Theta[k] != resp2.Assignments[i].Theta[k] {
				t.Fatalf("assignment %d theta[%d] differs across identical requests", i, k)
			}
		}
	}

	// Default top_k is 1.
	code, body = postAssign(t, ts, status.ModelID, infer.RequestDoc{Objects: req.Objects[:1]})
	if code != http.StatusOK {
		t.Fatalf("assign default top_k: %d: %s", code, body)
	}
	var one client.AssignResponse
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if len(one.Assignments[0].Top) != 1 {
		t.Fatalf("default top list %v, want length 1", one.Assignments[0].Top)
	}
}

// TestAssignRejections drives the trust boundary: every malformed or
// oversized request is a typed 4xx, never a 5xx, and the daemon keeps
// serving afterwards.
func TestAssignRejections(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1, MaxAssignBatch: 4})
	modelID, _ := assignFixture(t, ts)

	post := func(payload string) (int, []byte) {
		t.Helper()
		return doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/"+modelID+"/assign", []byte(payload))
	}

	if code, _ := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/mdl_nope/assign", []byte(`{"objects":[{}]}`)); code != http.StatusNotFound {
		t.Fatalf("unknown model: %d, want 404", code)
	}
	// overCap repeats one JSON element one past a per-query cap.
	overCap := func(limit int, elem string) string {
		return strings.Repeat(elem+",", limit) + elem
	}
	lim := infer.DefaultLimits()
	cases := []struct {
		name    string
		payload string
		want    int
	}{
		{"bad json", `{`, http.StatusBadRequest},
		{"no objects", `{"objects":[]}`, http.StatusBadRequest},
		{"negative top_k", `{"objects":[{}],"top_k":-1}`, http.StatusBadRequest},
		{"batch overflow", `{"objects":[{},{},{},{},{}]}`, http.StatusRequestEntityTooLarge},
		{"unknown relation", `{"objects":[{"links":[{"rel":"ghost","to":"doc0000","w":1}]}]}`, http.StatusBadRequest},
		{"unknown target", `{"objects":[{"links":[{"rel":"cites","to":"ghost","w":1}]}]}`, http.StatusBadRequest},
		{"bad weight", `{"objects":[{"links":[{"rel":"cites","to":"doc0000","w":-1}]}]}`, http.StatusBadRequest},
		{"links overflow", `{"objects":[{"links":[` + overCap(lim.MaxLinks, `{"rel":"cites","to":"doc0000","w":1}`) + `]}]}`, http.StatusRequestEntityTooLarge},
		{"unknown attribute", `{"objects":[{"terms":{"ghost":[{"t":0,"c":1}]}}]}`, http.StatusBadRequest},
		{"term out of vocab", `{"objects":[{"terms":{"text":[{"t":99,"c":1}]}}]}`, http.StatusBadRequest},
		{"bad count", `{"objects":[{"terms":{"text":[{"t":0,"c":0}]}}]}`, http.StatusBadRequest},
		{"terms overflow", `{"objects":[{"terms":{"text":[` + overCap(lim.MaxTerms, `{"t":0,"c":1}`) + `]}}]}`, http.StatusRequestEntityTooLarge},
		{"numeric on categorical", `{"objects":[{"numeric":{"text":[1]}}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		code, body := post(tc.payload)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.want, body)
		}
	}

	// An information-free object is fine (uniform), and the daemon still
	// answers after the barrage.
	code, body := post(`{"objects":[{"id":"empty"}]}`)
	if code != http.StatusOK {
		t.Fatalf("empty object after rejections: %d: %s", code, body)
	}
	var resp client.AssignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if th := resp.Assignments[0].Theta; th[0] != 0.5 || th[1] != 0.5 {
		t.Fatalf("information-free posterior %v, want uniform", th)
	}
}

// TestAssignOnePassPerRequest holds one request's engine pass open, queues
// seven single-object requests behind the engine lock, and releases: each
// request must run its own pass, report batched=false, and get back only
// its own assignment.
func TestAssignOnePassPerRequest(t *testing.T) {
	s, ts, entered, release := blockedPassServer(t, Config{Workers: 1})
	modelID, res := assignFixture(t, ts)

	type outcome struct {
		batched bool
		err     error
	}
	assign := func(i int) outcome {
		obj := res.Objects[i%len(res.Objects)]
		id := fmt.Sprintf("q%d", i)
		req := infer.RequestDoc{Objects: []infer.ObjectDoc{{ID: id, Links: []infer.LinkDoc{{Relation: "cites", To: obj.ID, Weight: 1}}}}}
		payload, _ := json.Marshal(req)
		hr, err := http.Post(ts.URL+"/v1/models/"+modelID+"/assign", "application/json", bytes.NewReader(payload))
		if err != nil {
			return outcome{err: err}
		}
		defer hr.Body.Close()
		var resp client.AssignResponse
		if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil || hr.StatusCode != http.StatusOK {
			return outcome{err: fmt.Errorf("status %d err %v", hr.StatusCode, err)}
		}
		if len(resp.Assignments) != 1 || resp.Assignments[0].ID != id {
			return outcome{err: fmt.Errorf("wrong assignment routed: %+v", resp.Assignments)}
		}
		return outcome{batched: resp.Batched}
	}

	// The first request finds the engine idle and enters its pass at once.
	first := make(chan outcome, 1)
	go func() { first <- assign(0) }()
	<-entered

	const n = 7
	var wg sync.WaitGroup
	queued := make([]outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			queued[i] = assign(i + 1)
		}(i)
	}
	entry, ok := s.store.model(modelID)
	if !ok {
		t.Fatal("model vanished")
	}
	waitFor(t, 10*time.Second, func() bool {
		s.assignCache.mu.Lock()
		ce := s.assignCache.entries[entry.digest]
		s.assignCache.mu.Unlock()
		return ce.waiting.Load() == n
	})

	release()
	wg.Wait()
	for i, out := range append([]outcome{<-first}, queued...) {
		if out.err != nil {
			t.Fatalf("request %d: %v", i, out.err)
		}
		if out.batched {
			t.Fatalf("request %d reported batched=true, want its own pass", i)
		}
	}

	a := fetchHealth(t, ts).Assign
	if a.Requests != n+1 || a.Objects != n+1 {
		t.Fatalf("assign counters %+v, want %d requests/objects", a, n+1)
	}
	if a.EnginePasses != n+1 {
		t.Fatalf("%d engine passes, want %d (one per request)", a.EnginePasses, n+1)
	}
	if a.BatchedRequests != 0 {
		t.Fatalf("batched_requests = %d, want 0", a.BatchedRequests)
	}
	if a.EngineCacheMisses != 1 || a.EngineCacheHits < n {
		t.Fatalf("engine cache hits=%d misses=%d, want 1 miss and ≥%d hits", a.EngineCacheHits, a.EngineCacheMisses, n)
	}
}

// TestAssignConcurrentNoLeak hammers one model from many goroutines and
// checks (under -race in CI) that results stay isolated and no goroutine
// outlives its requests.
func TestAssignConcurrentNoLeak(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	modelID, res := assignFixture(t, ts)
	baseline := runtime.NumGoroutine()

	const workers, rounds = 6, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				obj := res.Objects[(w+r)%len(res.Objects)]
				req := infer.RequestDoc{Objects: []infer.ObjectDoc{{ID: obj.ID, Links: []infer.LinkDoc{{Relation: "cites", To: obj.ID, Weight: 1}}}}}
				payload, _ := json.Marshal(req)
				hr, err := http.Post(ts.URL+"/v1/models/"+modelID+"/assign", "application/json", bytes.NewReader(payload))
				if err != nil {
					t.Error(err)
					return
				}
				var resp client.AssignResponse
				err = json.NewDecoder(hr.Body).Decode(&resp)
				hr.Body.Close()
				if err != nil || hr.StatusCode != http.StatusOK {
					t.Errorf("status %d err %v", hr.StatusCode, err)
					return
				}
				if resp.Assignments[0].ID != obj.ID {
					t.Errorf("cross-request result leak: got %q want %q", resp.Assignments[0].ID, obj.ID)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	deadline := time.Now().Add(30 * time.Second)
	for {
		ts.Client().CloseIdleConnections()
		http.DefaultClient.CloseIdleConnections()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after concurrent assigns: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAssignEngineCacheSharedByDigest checks that importing the exported
// snapshot of a fitted model — a second registry entry with the same
// canonical bytes — reuses the cached engine, because the cache is keyed
// by snapshot digest rather than model id.
func TestAssignEngineCacheSharedByDigest(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	modelID, res := assignFixture(t, ts)

	code, snap := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/models/"+modelID+"/export", nil)
	if code != http.StatusOK {
		t.Fatalf("export: %d", code)
	}
	code, body := doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/import", snap)
	if code != http.StatusCreated {
		t.Fatalf("import: %d: %s", code, body)
	}
	var imported client.ModelInfo
	if err := json.Unmarshal(body, &imported); err != nil {
		t.Fatal(err)
	}

	req := infer.RequestDoc{Objects: []infer.ObjectDoc{{Links: []infer.LinkDoc{{Relation: "cites", To: res.Objects[0].ID, Weight: 1}}}}}
	if code, body := postAssign(t, ts, modelID, req); code != http.StatusOK {
		t.Fatalf("assign original: %d: %s", code, body)
	}
	if code, body := postAssign(t, ts, imported.ID, req); code != http.StatusOK {
		t.Fatalf("assign import: %d: %s", code, body)
	}

	var health client.Health
	_, hb := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/healthz", nil)
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if health.Assign.EngineCacheMisses != 1 || health.Assign.EngineCacheHits != 1 {
		t.Fatalf("cache hits=%d misses=%d, want one engine shared across both registry entries",
			health.Assign.EngineCacheHits, health.Assign.EngineCacheMisses)
	}
	// Sequential requests never overlap a running pass: nothing may
	// report batched.
	if health.Assign.BatchedRequests != 0 {
		t.Fatalf("batched_requests = %d for sequential requests", health.Assign.BatchedRequests)
	}

	// Deleting one of the two entries keeps the shared engine (the digest
	// is still live); deleting the last one drops it, so a re-import of
	// the same bytes rebuilds — visible as a second cache miss.
	if code, _ := doReq(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/models/"+imported.ID, nil); code != http.StatusNoContent {
		t.Fatalf("delete imported: %d", code)
	}
	if code, body := postAssign(t, ts, modelID, req); code != http.StatusOK {
		t.Fatalf("assign after deleting twin: %d: %s", code, body)
	}
	if code, _ := doReq(t, ts.Client(), http.MethodDelete, ts.URL+"/v1/models/"+modelID, nil); code != http.StatusNoContent {
		t.Fatalf("delete original: %d", code)
	}
	code, body = doReq(t, ts.Client(), http.MethodPost, ts.URL+"/v1/models/import", snap)
	if code != http.StatusCreated {
		t.Fatalf("re-import: %d: %s", code, body)
	}
	var again client.ModelInfo
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if code, body := postAssign(t, ts, again.ID, req); code != http.StatusOK {
		t.Fatalf("assign re-import: %d: %s", code, body)
	}
	_, hb = doReq(t, ts.Client(), http.MethodGet, ts.URL+"/healthz", nil)
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if health.Assign.EngineCacheMisses != 2 {
		t.Fatalf("cache misses = %d after last-entry delete + re-import, want 2 (engine was purged)",
			health.Assign.EngineCacheMisses)
	}
}

// TestAssignCustomEpsilonBitwise drives the epsilon provenance end to end
// over HTTP: a fit submitted with a non-default epsilon converges to an
// exact fixed point, and assigning its training objects reproduces the
// fitted Θ rows bit for bit — through the daemon's assign endpoint, and
// through a zero-options engine over the exported snapshot decoded by the
// library, which restores the fit's epsilon from the snapshot meta.
func TestAssignCustomEpsilonBitwise(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	network, _ := testNetworkJSON(t, 12, 3)
	netID := uploadNetwork(t, ts, network)
	outer, em, seeds := 1, 3000, 1
	emTol, eps := 1e-300, 1e-6
	learn := false
	jobID := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2, Options: &client.JobOptions{
		OuterIters: &outer, EMIters: &em, EMTol: &emTol, InitSeeds: &seeds,
		LearnGamma: &learn, Epsilon: &eps,
	}})
	status := waitForState(t, ts, jobID, client.StateDone)
	res := fetchResult(t, ts, jobID)
	if res.EMIterations >= em {
		t.Fatalf("fit did not reach an exact fixed point (%d EM iterations)", res.EMIterations)
	}

	// Assigning the training objects reproduces Θ bitwise — which only
	// works if the engine flooring matches the fit's epsilon.
	req := infer.RequestDoc{}
	for _, obj := range res.Objects {
		req.Objects = append(req.Objects, trainingAssignObject(obj, network, t))
	}
	requireFitted := func(via string, got [][]float64) {
		t.Helper()
		for i, row := range got {
			for k, x := range row {
				if x != res.Objects[i].Theta[k] {
					t.Fatalf("%s: object %s theta[%d]: assigned %v, fitted %v (epsilon not honored?)",
						via, res.Objects[i].ID, k, x, res.Objects[i].Theta[k])
				}
			}
		}
	}
	code, body := postAssign(t, ts, status.ModelID, req)
	if code != http.StatusOK {
		t.Fatalf("assign: %d: %s", code, body)
	}
	var resp client.AssignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	served := make([][]float64, len(resp.Assignments))
	for i, a := range resp.Assignments {
		served[i] = a.Theta
	}
	requireFitted("assign endpoint", served)

	// The exported snapshot carries the fit's epsilon: decoded through the
	// library, the model scores at it with zero engine options.
	code, snap := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/models/"+status.ModelID+"/export", nil)
	if code != http.StatusOK {
		t.Fatalf("export: %d", code)
	}
	model, err := genclus.DecodeModel(snap)
	if err != nil {
		t.Fatal(err)
	}
	if model.Epsilon != eps {
		t.Fatalf("decoded model epsilon = %v, want %v", model.Epsilon, eps)
	}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	_, queries, err := infer.DecodeRequest(payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := infer.NewEngine(model, infer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.AssignBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	local := make([][]float64, len(out))
	for i, a := range out {
		local[i] = a.Theta
	}
	requireFitted("decoded snapshot", local)
}

// TestAssignPanicContainment wedge-proofs the engine lock: a panicking
// engine pass (simulated with a nil engine) must fail its request with an
// error instead of hanging it, and release the lock so later requests
// still get answered.
func TestAssignPanicContainment(t *testing.T) {
	ce := &cachedEngine{eng: nil, met: (&Server{}).newServerMetrics()}
	run := func() error {
		t.Helper()
		errc := make(chan error, 1)
		go func() {
			_, err := ce.assign(make([]infer.Query, 1), 1)
			errc <- err
		}()
		select {
		case err := <-errc:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("engine wedged: assign() never returned after a panicking pass")
			return nil
		}
	}
	if err := run(); err == nil {
		t.Fatal("panicked pass must fail the request, not return results")
	}
	// The lock was released: the next request is also answered (and fails
	// the same way, since the engine is still nil).
	if err := run(); err == nil {
		t.Fatal("second request after contained panic must also be answered")
	}
	if !ce.mu.TryLock() {
		t.Fatal("engine lock still held after contained panics")
	}
	ce.mu.Unlock()
	if w := ce.waiting.Load(); w != 0 {
		t.Fatalf("waiting = %d after contained panics, want 0", w)
	}
}
