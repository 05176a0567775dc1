package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"genclus/client"
)

// deadEndpoint reserves a port, closes it, and returns a base URL whose
// dials are refused deterministically.
func deadEndpoint(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + l.Addr().String()
	l.Close()
	return url
}

// fakeNode is a scriptable endpoint that answers assigns with a canned
// response (or a scripted status) and counts its hits.
type fakeNode struct {
	assigns    atomic.Int64
	lists      atomic.Int64
	deletes    atomic.Int64
	failStatus atomic.Int64 // non-zero: answer assigns with this status
	srv        *httptest.Server
}

func newFakeNode(t *testing.T, name string) *fakeNode {
	t.Helper()
	n := &fakeNode{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/models/{id}/assign", func(w http.ResponseWriter, r *http.Request) {
		n.assigns.Add(1)
		if st := n.failStatus.Load(); st != 0 {
			w.WriteHeader(int(st))
			if st == http.StatusNotFound {
				json.NewEncoder(w).Encode(map[string]string{"error": "no such model", "code": "model_not_found"})
			}
			return
		}
		json.NewEncoder(w).Encode(client.AssignResponse{
			ModelID:     r.PathValue("id"),
			K:           2,
			Assignments: []client.Assignment{{ID: name, Cluster: 0, Theta: []float64{1, 0}}},
		})
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		n.lists.Add(1)
		json.NewEncoder(w).Encode(map[string]any{"models": []any{}})
	})
	mux.HandleFunc("DELETE /v1/models/{id}", func(w http.ResponseWriter, r *http.Request) {
		n.deletes.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	n.srv = httptest.NewServer(mux)
	t.Cleanup(n.srv.Close)
	return n
}

// TestTransportErrorsAreUnavailable pins the SDK's transient-error
// taxonomy: a refused connection matches ErrUnavailable (so callers — and
// MultiEndpoint — can fail over on it), while a canceled context does not
// (giving up is not the endpoint's fault).
func TestTransportErrorsAreUnavailable(t *testing.T) {
	c := client.New(deadEndpoint(t), client.WithRetries(0, 0))
	_, err := c.ListModels(context.Background())
	if err == nil {
		t.Fatal("dead listener: want error")
	}
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("dead listener: errors.Is(err, ErrUnavailable) = false for %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = c.ListModels(ctx)
	if err == nil {
		t.Fatal("canceled context: want error")
	}
	if errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("canceled context must not read as unavailable: %v", err)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestTransportErrorMessage pins the text of a transport failure: the
// *url.Error cause names the request, and the SDK adds only its "client: "
// prefix — for a failed round trip and for a body severed mid-read alike.
func TestTransportErrorMessage(t *testing.T) {
	cause := errors.New("connection reset by peer")
	for _, c := range []struct {
		name string
		rt   roundTripFunc
		want string
	}{
		{"round trip", func(*http.Request) (*http.Response, error) { return nil, cause },
			`client: Get "http://primary:8080/v1/models": connection reset by peer`},
		{"body", func(r *http.Request) (*http.Response, error) {
			return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Request: r,
				Body: io.NopCloser(iotest.ErrReader(cause))}, nil
		}, `client: read body of GET "http://primary:8080/v1/models": connection reset by peer`},
	} {
		sdk := client.New("http://primary:8080", client.WithRetries(0, 0),
			client.WithHTTPClient(&http.Client{Transport: c.rt}))
		_, err := sdk.ListModels(context.Background())
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %q", c.name, err, c.want)
		}
		if !errors.Is(err, cause) || !errors.Is(err, client.ErrUnavailable) {
			t.Errorf("%s: %v must wrap its cause and match ErrUnavailable", c.name, err)
		}
	}
}

// TestAPIErrorUnavailable pins the status side of the taxonomy: gateway-ish
// 5xx responses match ErrUnavailable, typed 4xx responses do not.
func TestAPIErrorUnavailable(t *testing.T) {
	n := newFakeNode(t, "n")
	c := client.New(n.srv.URL, client.WithRetries(0, 0))

	n.failStatus.Store(http.StatusServiceUnavailable)
	_, err := c.AssignObjects(context.Background(), "m", client.AssignRequest{})
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("503: errors.Is(err, ErrUnavailable) = false for %v", err)
	}

	n.failStatus.Store(http.StatusNotFound)
	_, err = c.AssignObjects(context.Background(), "m", client.AssignRequest{})
	if err == nil || errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("404 must not read as unavailable: %v", err)
	}
	if !client.IsNotFound(err) {
		t.Fatalf("404 lost its typed identity: %v", err)
	}
}

func TestMultiEndpointSpreadsAssigns(t *testing.T) {
	primary := newFakeNode(t, "primary")
	r1 := newFakeNode(t, "r1")
	r2 := newFakeNode(t, "r2")
	me := client.NewMultiEndpoint(primary.srv.URL, []string{r1.srv.URL, r2.srv.URL})

	for i := 0; i < 10; i++ {
		if _, err := me.AssignObjects(context.Background(), "m", client.AssignRequest{}); err != nil {
			t.Fatalf("assign %d: %v", i, err)
		}
	}
	if r1.assigns.Load() != 5 || r2.assigns.Load() != 5 {
		t.Fatalf("round-robin spread: r1 %d, r2 %d, want 5/5", r1.assigns.Load(), r2.assigns.Load())
	}
	if primary.assigns.Load() != 0 {
		t.Fatalf("primary served %d assigns with healthy replicas", primary.assigns.Load())
	}
}

// TestMultiEndpointFailoverAndQuarantine kills one replica: traffic fails
// over without surfacing errors, the dead replica is quarantined out of
// rotation, and it rejoins after recovering.
func TestMultiEndpointFailoverAndQuarantine(t *testing.T) {
	primary := newFakeNode(t, "primary")
	r1 := newFakeNode(t, "r1")
	r2 := newFakeNode(t, "r2")
	me := client.NewMultiEndpoint(primary.srv.URL, []string{r1.srv.URL, r2.srv.URL},
		client.WithQuarantine(50*time.Millisecond, 100*time.Millisecond))

	r1.failStatus.Store(http.StatusServiceUnavailable)
	for i := 0; i < 6; i++ {
		if _, err := me.AssignObjects(context.Background(), "m", client.AssignRequest{}); err != nil {
			t.Fatalf("assign %d during replica outage: %v", i, err)
		}
	}
	// r1 ate at most one probe before quarantine pulled it from rotation;
	// r2 absorbed the rest and the primary stayed untouched.
	if got := r1.assigns.Load(); got > 2 {
		t.Fatalf("quarantined replica kept receiving traffic: %d hits", got)
	}
	if r2.assigns.Load() < 4 {
		t.Fatalf("surviving replica hits: %d, want >= 4", r2.assigns.Load())
	}
	if primary.assigns.Load() != 0 {
		t.Fatalf("primary served %d assigns with a replica alive", primary.assigns.Load())
	}
	var quarantined int
	for _, ep := range me.Endpoints() {
		if ep.Quarantined {
			quarantined++
			if ep.ConsecutiveFailures == 0 || ep.QuarantinedUntil.IsZero() {
				t.Fatalf("quarantined endpoint status incomplete: %+v", ep)
			}
		}
	}
	if quarantined != 1 {
		t.Fatalf("quarantined endpoints: %d, want 1", quarantined)
	}

	// Recovery: once the hold expires, the healed replica re-enters
	// rotation and serves again.
	r1.failStatus.Store(0)
	time.Sleep(120 * time.Millisecond)
	before := r1.assigns.Load()
	for i := 0; i < 4; i++ {
		if _, err := me.AssignObjects(context.Background(), "m", client.AssignRequest{}); err != nil {
			t.Fatalf("assign %d after recovery: %v", i, err)
		}
	}
	if r1.assigns.Load() == before {
		t.Fatal("recovered replica never rejoined rotation")
	}
}

// TestMultiEndpointPrimaryFallback downs every replica: assigns fall back
// to the primary instead of failing.
func TestMultiEndpointPrimaryFallback(t *testing.T) {
	primary := newFakeNode(t, "primary")
	me := client.NewMultiEndpoint(primary.srv.URL, []string{deadEndpoint(t), deadEndpoint(t)})

	for i := 0; i < 3; i++ {
		out, err := me.AssignObjects(context.Background(), "m", client.AssignRequest{})
		if err != nil {
			t.Fatalf("assign %d with dead replicas: %v", i, err)
		}
		if out.Assignments[0].ID != "primary" {
			t.Fatalf("assign served by %q, want primary", out.Assignments[0].ID)
		}
	}
	if primary.assigns.Load() != 3 {
		t.Fatalf("primary hits: %d, want 3", primary.assigns.Load())
	}
}

// TestMultiEndpointEverythingDown checks the terminal case: with every
// endpoint refusing connections the caller gets the last transport error,
// still typed ErrUnavailable.
func TestMultiEndpointEverythingDown(t *testing.T) {
	me := client.NewMultiEndpoint(deadEndpoint(t), []string{deadEndpoint(t)},
		client.WithEndpointOptions(client.WithRetries(0, 0)))
	_, err := me.AssignObjects(context.Background(), "m", client.AssignRequest{})
	if err == nil {
		t.Fatal("all endpoints dead: want error")
	}
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("all-dead error not ErrUnavailable: %v", err)
	}
}

// TestMultiEndpointTypedErrorsReturnImmediately pins the consistency
// decision: a typed 404 (model not synced yet, or genuinely absent) is the
// caller's to handle — failing over would just mask replication lag.
func TestMultiEndpointTypedErrorsReturnImmediately(t *testing.T) {
	primary := newFakeNode(t, "primary")
	r1 := newFakeNode(t, "r1")
	r1.failStatus.Store(http.StatusNotFound)
	me := client.NewMultiEndpoint(primary.srv.URL, []string{r1.srv.URL})

	_, err := me.AssignObjects(context.Background(), "missing", client.AssignRequest{})
	if !client.IsNotFound(err) {
		t.Fatalf("want typed not-found, got %v", err)
	}
	if primary.assigns.Load() != 0 {
		t.Fatal("typed 4xx failed over to the primary")
	}
	if me.Endpoints()[0].Quarantined {
		t.Fatal("typed 4xx quarantined the replica")
	}
}

// TestMultiEndpointRoutesWritesToPrimary checks the write split: model
// admin goes to the primary even with replicas configured.
func TestMultiEndpointRoutesWritesToPrimary(t *testing.T) {
	primary := newFakeNode(t, "primary")
	r1 := newFakeNode(t, "r1")
	me := client.NewMultiEndpoint(primary.srv.URL, []string{r1.srv.URL})

	if _, err := me.ListModels(context.Background()); err != nil {
		t.Fatalf("ListModels: %v", err)
	}
	if err := me.DeleteModel(context.Background(), "m"); err != nil {
		t.Fatalf("DeleteModel: %v", err)
	}
	if primary.lists.Load() != 1 || primary.deletes.Load() != 1 {
		t.Fatalf("primary hits: lists %d, deletes %d, want 1/1", primary.lists.Load(), primary.deletes.Load())
	}
	if r1.lists.Load() != 0 || r1.deletes.Load() != 0 {
		t.Fatal("writes leaked to a replica")
	}
	if me.Primary() == nil {
		t.Fatal("Primary() returned nil")
	}
}
