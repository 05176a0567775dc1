package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"genclus/client"
)

// nonFiniteNetwork has a numeric attribute whose readings (±1e200) square
// past the float64 range, so a fit's Gaussian variance overflows to +Inf
// and its objective g₁ to NaN.
const nonFiniteNetwork = `{"attributes":[{"name":"value","kind":"numeric"}],` +
	`"objects":[{"id":"x","type":"t","numeric":{"value":[1e200]}},{"id":"y","type":"t","numeric":{"value":[-1e200]}},{"id":"z","type":"t","numeric":{"value":[0]}}],` +
	`"links":[{"from":"x","to":"y","rel":"r","w":1},{"from":"y","to":"z","rel":"r","w":1}]}`

// TestNonFiniteFitFails fits nonFiniteNetwork with k=2. The job must end
// failed with an error naming the non-finite value, the SDK's wait must
// return that failure, and the status and result routes must answer
// well-formed documents. A fit that ended done with a NaN objective
// answered both routes with an empty 200, and the SDK waited until its
// deadline.
func TestNonFiniteFitFails(t *testing.T) {
	_, ts := testServer(t, Config{})
	netID := uploadNetwork(t, ts, []byte(nonFiniteNetwork))
	id := submitJob(t, ts, client.JobSpec{NetworkID: netID, K: 2})
	job := waitForState(t, ts, id, client.StateFailed)
	if !strings.Contains(job.Error, "non-finite objective g₁ = NaN") {
		t.Fatalf("job error %q does not name the non-finite value", job.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	var jobErr *client.JobError
	if _, err := c.WaitForResult(ctx, id); !errors.As(err, &jobErr) || jobErr.State != client.StateFailed {
		t.Fatalf("WaitForResult: %v, want the job's failure", err)
	}
	code, body := doReq(t, ts.Client(), http.MethodGet, ts.URL+"/v1/jobs/"+id+"/result", nil)
	var apiErr client.APIError
	if code != http.StatusConflict || json.Unmarshal(body, &apiErr) != nil || apiErr.Message == "" {
		t.Fatalf("result of a failed job: %d %q, want a 409 error body", code, body)
	}
}

// TestWriteJSONEncodeFailure checks that a response document that cannot
// be encoded answers a 500 error body, not a 200 with no body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, map[string]float64{"objective": math.NaN()})
	var apiErr client.APIError
	if w.Code != http.StatusInternalServerError || json.Unmarshal(w.Body.Bytes(), &apiErr) != nil || !strings.Contains(apiErr.Message, "encode") {
		t.Fatalf("got %d %q, want a 500 error body", w.Code, w.Body.Bytes())
	}
}
