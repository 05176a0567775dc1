package client_test

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"genclus/client"
	"genclus/internal/server"
)

// TestSDKMutateAndSupervise drives the streaming-mutation surface
// exclusively through the SDK: all four mutation calls advance the view
// generation, the supervisor's auto-refit publishes a model the client can
// assign against, and mutation errors surface as typed *APIError values.
func TestSDKMutateAndSupervise(t *testing.T) {
	c := testDaemon(t, server.Config{
		Workers:                  1,
		SupervisorMaxPending:     4,
		SupervisorDriftThreshold: -1,
		SupervisorInterval:       10 * time.Millisecond,
	})
	ctx := t.Context()

	net, _ := testNetwork(t, 15)
	info, err := c.UploadNetwork(ctx, net)
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.SubmitJob(ctx, client.JobSpec{NetworkID: info.ID, K: 2, Options: quickOpts(11)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitForResult(ctx, job.ID); err != nil {
		t.Fatal(err)
	}

	// A network that has never been mutated reports an idle supervisor.
	st, err := c.SupervisorStatus(ctx, info.ID)
	if err != nil || st.Active || st.Generation != 0 {
		t.Fatalf("pre-mutation supervisor status: %+v, %v", st, err)
	}

	// Generation 1: two new papers citing into the existing literature.
	res, err := c.AddObjects(ctx, info.ID,
		[]client.NewObject{
			{ID: "late0", Type: "doc", Terms: map[string][]client.TermCount{"text": {{Term: 1, Count: 3}}}},
			{ID: "late1", Type: "doc"},
		},
		[]client.Edge{
			{From: "late0", To: "doc0_0000", Relation: "cites", Weight: 1},
			{From: "late1", To: "doc1_0000", Relation: "cites", Weight: 1},
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != 1 || res.Objects != info.Objects+2 || res.DeltaLogDepth != 1 {
		t.Fatalf("AddObjects result: %+v", res)
	}

	// Generation 2: a link between the newcomers.
	res, err = c.AddEdges(ctx, info.ID, []client.Edge{{From: "late0", To: "late1", Relation: "cites", Weight: 2}})
	if err != nil || res.Generation != 2 {
		t.Fatalf("AddEdges result: %+v, %v", res, err)
	}

	// Generation 3: remove it again.
	res, err = c.RemoveEdges(ctx, info.ID, []client.EdgeRef{{From: "late0", To: "late1", Relation: "cites"}})
	if err != nil || res.Generation != 3 || res.Links != info.Links+2 {
		t.Fatalf("RemoveEdges result: %+v, %v", res, err)
	}

	// Generation 4: replace one observation, clear another — this fourth
	// mutation reaches SupervisorMaxPending and triggers the auto-refit.
	res, err = c.PatchAttributes(ctx, info.ID, []client.AttributePatch{
		{ID: "late0", Terms: map[string][]client.TermCount{"text": {{Term: 2, Count: 5}}}},
		{ID: "late1", Terms: map[string][]client.TermCount{"text": {}}},
	})
	if err != nil || res.Generation != 4 {
		t.Fatalf("PatchAttributes result: %+v, %v", res, err)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err = c.SupervisorStatus(ctx, info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.RefitsSucceeded >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-refit never completed: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !st.Active || st.LastModelID == "" || st.LastRefitGeneration != 4 {
		t.Fatalf("supervisor status after auto-refit: %+v", st)
	}

	// The rolled-forward model folds in a fresh object immediately.
	ar, err := c.AssignObjects(ctx, st.LastModelID, client.AssignRequest{
		Objects: []client.AssignObject{{
			ID:    "q0",
			Links: []client.AssignLink{{Relation: "cites", To: "late0", Weight: 1}},
		}},
	})
	if err != nil || len(ar.Assignments) != 1 {
		t.Fatalf("assign against auto-refit model: %+v, %v", ar, err)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Mutation.Mutations != 4 || h.Mutation.Supervisors != 1 || h.Mutation.RefitsSucceeded < 1 {
		t.Fatalf("health mutation block: %+v", h.Mutation)
	}

	// Typed failures: unknown network is a 404, a contradictory mutation a
	// 400 — and a failed mutation publishes no generation.
	if _, err := c.AddEdges(ctx, "net_nope", []client.Edge{{From: "a", To: "b", Relation: "r", Weight: 1}}); !client.IsNotFound(err) {
		t.Fatalf("mutation against unknown network: %v", err)
	}
	var ae *client.APIError
	if _, err := c.RemoveEdges(ctx, info.ID, []client.EdgeRef{{From: "late0", To: "late1", Relation: "cites"}}); !errors.As(err, &ae) || ae.StatusCode != 400 {
		t.Fatalf("removing an absent edge: %v", err)
	}
	if st, err = c.SupervisorStatus(ctx, info.ID); err != nil || st.Generation != 4 {
		t.Fatalf("generation after failed mutation: %+v, %v", st, err)
	}
}

// TestMutationRequestBodies pins the exact bytes each SDK mutation call
// sends: a deltalog.Mutation whose op the endpoint implies, so the body
// omits it.
func TestMutationRequestBodies(t *testing.T) {
	var mu sync.Mutex
	var got []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		got = append(got, r.Method+" "+r.URL.Path+" "+string(body))
		mu.Unlock()
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := t.Context()
	link := client.Edge{From: "a", To: "b", Relation: "cites", Weight: 1.5}
	for _, call := range []func() (*client.MutationResult, error){
		func() (*client.MutationResult, error) { return c.AddEdges(ctx, "n1", []client.Edge{link}) },
		func() (*client.MutationResult, error) {
			return c.RemoveEdges(ctx, "n1", []client.EdgeRef{{From: "a", To: "b", Relation: "cites"}})
		},
		func() (*client.MutationResult, error) {
			return c.AddObjects(ctx, "n1", []client.NewObject{{
				ID: "x", Type: "doc",
				Terms:   map[string][]client.TermCount{"text": {{Term: 2, Count: 3}}},
				Numeric: map[string][]float64{"year": {2001}},
			}}, []client.Edge{link})
		},
		func() (*client.MutationResult, error) {
			return c.AddObjects(ctx, "n1", []client.NewObject{{ID: "y", Type: "doc"}}, nil)
		},
		func() (*client.MutationResult, error) {
			return c.PatchAttributes(ctx, "n1", []client.AttributePatch{{ID: "x", Numeric: map[string][]float64{"year": {}}}})
		},
	} {
		if _, err := call(); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		`POST /v1/networks/n1/edges {"add":[{"from":"a","to":"b","rel":"cites","w":1.5}]}`,
		`POST /v1/networks/n1/edges {"remove":[{"from":"a","to":"b","rel":"cites"}]}`,
		`POST /v1/networks/n1/objects {"objects":[{"id":"x","type":"doc","terms":{"text":[{"t":2,"c":3}]},"numeric":{"year":[2001]}}],"links":[{"from":"a","to":"b","rel":"cites","w":1.5}]}`,
		`POST /v1/networks/n1/objects {"objects":[{"id":"y","type":"doc"}]}`,
		`PATCH /v1/networks/n1/attributes {"set":[{"id":"x","numeric":{"year":[]}}]}`,
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("requests:\n%s", strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("request %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
