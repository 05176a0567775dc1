package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"genclus"
	"genclus/client"
	"genclus/internal/server"
)

// recordingWriter keeps a copy of the response body it passes on.
type recordingWriter struct {
	http.ResponseWriter
	body *bytes.Buffer
}

func (w recordingWriter) Write(b []byte) (int, error) {
	w.body.Write(b)
	return w.ResponseWriter.Write(b)
}

// TestWireBytesMatchEncodingJSON drives one fit with truth and one assign
// with top_k 2 through a live daemon, with object, relation and query ids
// that need escaping, and holds the hand-written codecs to encoding/json
// on the wire: the /result and /assign bodies are json.Marshal's bytes of
// the documents they carry, the SDK's assign request body is json.Marshal's
// bytes of the request, and JobResult and AssignObjects return what
// json.Unmarshal builds from those bodies.
func TestWireBytesMatchEncodingJSON(t *testing.T) {
	s, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	bodies := make(map[string]*bytes.Buffer) // "request /assign", "response /assign", "response /result"
	record := func(key string) *bytes.Buffer {
		mu.Lock()
		defer mu.Unlock()
		bodies[key] = new(bytes.Buffer)
		return bodies[key]
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := r.URL.Path[strings.LastIndexByte(r.URL.Path, '/'):]
		if route != "/result" && route != "/assign" {
			s.Handler().ServeHTTP(w, r)
			return
		}
		if r.Body != nil {
			req, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			record("request " + route).Write(req)
			r.Body = io.NopCloser(bytes.NewReader(req))
		}
		s.Handler().ServeHTTP(recordingWriter{w, record("response " + route)}, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	c := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	ctx := context.Background()

	// Two topics of linked documents whose ids, type and relation hold
	// HTML characters, U+2028/U+2029 and non-ASCII text.
	const rel = "<cites>&\u2029"
	b := genclus.NewBuilder()
	b.DeclareAttribute(genclus.AttrSpec{Name: "text", Kind: genclus.Categorical, VocabSize: 20})
	truth := make(map[string]int)
	id := func(topic, i int) string { return fmt.Sprintf("doc<&>\u2028é\"%d_%02d", topic, i) }
	for topic := 0; topic < 2; topic++ {
		for i := 0; i < 12; i++ {
			truth[id(topic, i)] = topic
			b.AddObject(id(topic, i), "doc·€")
			for w := 0; w < 6; w++ {
				b.AddTermCount(id(topic, i), "text", topic*10+(i+w)%10, 1)
			}
		}
		for i := 0; i < 12; i++ {
			b.AddLink(id(topic, i), id(topic, (i+1)%12), rel, 1)
		}
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.UploadNetwork(ctx, net)
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.SubmitJob(ctx, client.JobSpec{NetworkID: info.ID, K: 2, Truth: truth, Options: quickOpts(1)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.WaitForResult(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil {
		t.Fatal("a fit with truth returned no metrics")
	}
	checkBody[client.Result](t, "GET /result", bodies["response /result"].Bytes(), res)

	status, err := c.JobStatus(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	req := client.AssignRequest{TopK: 2, Objects: []client.AssignObject{
		{ID: "q<&>\u2028ü", Links: []client.AssignLink{{Relation: rel, To: id(0, 3), Weight: 1.5}}},
		{ID: "q-text\u2029", Terms: map[string][]client.AssignTermCount{"text": {{Term: 11, Count: 2}, {Term: 12, Count: 1e-7}}}},
		{},
	}}
	resp, err := c.AssignObjects(ctx, status.ModelID, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := bodies["request /assign"].Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("assign request body:\n got: %s\nwant: %s", got, want)
	}
	checkBody[client.AssignResponse](t, "POST /assign", bodies["response /assign"].Bytes(), resp)
}

// checkBody fails t unless body is json.Marshal's encoding of the
// document it carries, newline-terminated as genclusd writes it, and got
// is what json.Unmarshal builds from body.
func checkBody[T any](t *testing.T, route string, body []byte, got *T) {
	t.Helper()
	var doc T
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("%s: %v", route, err)
	}
	want, err := json.Marshal(&doc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, append(want, '\n')) {
		t.Fatalf("%s body is not json.Marshal's:\n got: %s\nwant: %s", route, body, want)
	}
	if !reflect.DeepEqual(got, &doc) {
		t.Fatalf("%s: the SDK decoded\n%#v\njson.Unmarshal builds\n%#v", route, got, &doc)
	}
}
