package client_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"genclus/client"
	"genclus/internal/server"
)

// fitModelViaSDK uploads the test network, fits it, and returns the
// registered model id plus the fitted result.
func fitModelViaSDK(t *testing.T, c *client.Client) (string, *client.Result) {
	t.Helper()
	ctx := context.Background()
	net, _ := testNetwork(t, 12)
	info, err := c.UploadNetwork(ctx, net)
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.SubmitJob(ctx, client.JobSpec{NetworkID: info.ID, K: 2, Options: quickOpts(1)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.WaitForResult(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	status, err := c.JobStatus(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.ModelID == "" {
		t.Fatal("finished job has no model id")
	}
	return status.ModelID, res
}

// TestSDKAssignObjects drives online inference through the SDK: fold a new
// object in by links, by partial text, and by both, and check the
// assignments and the healthz assign counters.
func TestSDKAssignObjects(t *testing.T) {
	c := testDaemon(t, server.Config{Workers: 1})
	ctx := context.Background()
	modelID, res := fitModelViaSDK(t, c)

	// Topic-0 anchor object for links, topic-0 vocabulary for terms.
	anchor := res.Objects[0].ID
	resp, err := c.AssignObjects(ctx, modelID, client.AssignRequest{
		TopK: 2,
		Objects: []client.AssignObject{
			{ID: "new-linked", Links: []client.AssignLink{{Relation: "cites", To: anchor, Weight: 1}}},
			{ID: "new-texted", Terms: map[string][]client.AssignTermCount{"text": {{Term: 0, Count: 2}, {Term: 3, Count: 1}}}},
			{ID: "new-both", Links: []client.AssignLink{{Relation: "cites", To: anchor, Weight: 1}},
				Terms: map[string][]client.AssignTermCount{"text": {{Term: 1, Count: 1}}}},
			{ID: "new-empty"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ModelID != modelID || resp.K != 2 || len(resp.Assignments) != 4 {
		t.Fatalf("assign response header: %+v", resp)
	}
	wantCluster := res.Objects[0].Cluster
	for _, a := range resp.Assignments[:3] {
		if a.Cluster != wantCluster {
			t.Errorf("%s assigned to cluster %d, want %d (theta %v)", a.ID, a.Cluster, wantCluster, a.Theta)
		}
		if len(a.Top) != 2 || a.Top[0].Cluster != a.Cluster {
			t.Errorf("%s top list %v inconsistent", a.ID, a.Top)
		}
		if a.FoldInIters < 1 {
			t.Errorf("%s fold_in_iters = %d", a.ID, a.FoldInIters)
		}
	}
	empty := resp.Assignments[3]
	if empty.Theta[0] != 0.5 || empty.Theta[1] != 0.5 {
		t.Errorf("information-free object posterior %v, want uniform", empty.Theta)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Assign.Requests != 1 || h.Assign.Objects != 4 || h.Assign.EngineCacheMisses != 1 {
		t.Fatalf("healthz assign stats %+v", h.Assign)
	}
}

// TestSDKAssignErrors checks the typed error surface: unknown model is a
// 404 *APIError, a bad query a 400, an oversized batch a 413.
func TestSDKAssignErrors(t *testing.T) {
	c := testDaemon(t, server.Config{Workers: 1, MaxAssignBatch: 2})
	ctx := context.Background()
	modelID, _ := fitModelViaSDK(t, c)

	if _, err := c.AssignObjects(ctx, "mdl_nope", client.AssignRequest{Objects: []client.AssignObject{{}}}); !client.IsNotFound(err) {
		t.Fatalf("unknown model: %v, want 404", err)
	}
	_, err := c.AssignObjects(ctx, modelID, client.AssignRequest{
		Objects: []client.AssignObject{{Links: []client.AssignLink{{Relation: "ghost", To: "doc0_0000", Weight: 1}}}},
	})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown relation: %v, want 400", err)
	}
	_, err = c.AssignObjects(ctx, modelID, client.AssignRequest{Objects: []client.AssignObject{{}, {}, {}}})
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %v, want 413", err)
	}
}

// TestSDKAssignConcurrent exercises the acceptance criterion that
// concurrent SDK assign calls against one model are race- and leak-clean:
// many goroutines assign against one model's engine and every response
// routes back to its own request.
func TestSDKAssignConcurrent(t *testing.T) {
	c := testDaemon(t, server.Config{Workers: 1})
	ctx := context.Background()
	modelID, res := fitModelViaSDK(t, c)

	const workers, rounds = 8, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				id := fmt.Sprintf("q-%d-%d", w, r)
				anchor := res.Objects[(w*rounds+r)%len(res.Objects)].ID
				resp, err := c.AssignObjects(ctx, modelID, client.AssignRequest{
					Objects: []client.AssignObject{{ID: id, Links: []client.AssignLink{{Relation: "cites", To: anchor, Weight: 1}}}},
				})
				if err != nil {
					t.Errorf("%s: %v", id, err)
					return
				}
				if len(resp.Assignments) != 1 || resp.Assignments[0].ID != id {
					t.Errorf("%s: routed wrong assignment %+v", id, resp.Assignments)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Assign.Requests != workers*rounds {
		t.Fatalf("assign requests = %d, want %d", h.Assign.Requests, workers*rounds)
	}
	if h.Assign.EnginePasses > h.Assign.Requests {
		t.Fatalf("more passes (%d) than requests (%d)", h.Assign.EnginePasses, h.Assign.Requests)
	}
}
