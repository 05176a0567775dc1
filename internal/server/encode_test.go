package server

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"genclus/client"
	"genclus/internal/infer"
	"genclus/internal/jsonscan/scantest"
)

// sampleResult builds a result document shaped like a fit's, with ids
// and relation names that need escaping.
func sampleResult(objects, k int) *client.Result {
	rng := rand.New(rand.NewSource(int64(objects)))
	ids := []string{"A<&>", "P\u2028\u2029", "Zürich–東京", "a\xffb", "T0001", "\"q\"\\"}
	res := &client.Result{
		ID: "job_<1>", K: k, Objective: -12345.678, PseudoLL: -1e-7, EMIterations: 158, OuterIterations: 10,
		Gamma:   map[string]float64{"writes": 1.25, "<T,T>": 0, "published_by\u2028": 3e21, "é": 1e-9},
		Metrics: &client.Metrics{NMI: 0.987654321, ARI: 1, Purity: 0.5, Labeled: objects},
	}
	for i := 0; i < objects; i++ {
		theta := make([]float64, k)
		for c := range theta {
			theta[c] = rng.Float64() * math.Pow(10, -float64(rng.Intn(10)))
		}
		res.Objects = append(res.Objects, client.ObjectResult{
			ID: ids[i%len(ids)] + string(rune('0'+i%10)), Type: []string{"author", "paper", "venue"}[i%3], Cluster: i % k, Theta: theta,
		})
	}
	return res
}

// TestEncodeResultMatchesMarshal holds AppendResult to json.Marshal on a
// fit-shaped result and on the nil, empty and non-finite corners.
func TestEncodeResultMatchesMarshal(t *testing.T) {
	docs := []*client.Result{
		sampleResult(200, 4),
		{},
		{Objects: []client.ObjectResult{}, Gamma: map[string]float64{}, Metrics: &client.Metrics{}},
		{Objects: []client.ObjectResult{{}, {Theta: []float64{}}}},
		{Objective: math.NaN()},
		{Gamma: map[string]float64{"r": math.Inf(1)}},
		{Objects: []client.ObjectResult{{Theta: []float64{1, math.Inf(-1)}}}},
		{Metrics: &client.Metrics{NMI: math.NaN()}},
	}
	for _, doc := range docs {
		scantest.CheckEncode(t, doc, AppendResult)
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so a test counts
// only the allocations of encoding a body.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestEncodeAllocsNoMoreThanMarshal pins genclusd's result and assign
// encoders, writing through the recycled body buffers, at no more
// allocations per response than json.Marshal makes for the same
// document alone.
func TestEncodeAllocsNoMoreThanMarshal(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector breaks allocation counts and drops pooled buffers")
	}
	res := sampleResult(2000, 4)
	assign := &client.AssignResponse{ModelID: "mdl_1", K: 4}
	for i := 0; i < 8; i++ {
		assign.Assignments = append(assign.Assignments, infer.AssignmentDoc{
			ID: "q-P000" + string(rune('0'+i)), Cluster: i % 4, Theta: []float64{0.1, 0.2, 0.3, 0.4},
			Top: []infer.ClusterProbDoc{{Cluster: 3, P: 0.4}, {Cluster: 2, P: 0.3}},
		})
	}
	w := &discardWriter{h: make(http.Header)}
	for _, tc := range []struct {
		name   string
		doc    any
		write  func()
		encode func() ([]byte, error)
	}{
		{"result", res, func() {
			writeEncoded(w, http.StatusOK, resultSizeHint(res), func(dst []byte) ([]byte, error) { return AppendResult(dst, res) })
		}, func() ([]byte, error) { return AppendResult(nil, res) }},
		{"assign", assign, func() {
			writeEncoded(w, http.StatusOK, 0, func(dst []byte) ([]byte, error) { return infer.AppendResponse(dst, assign) })
		}, func() ([]byte, error) { return infer.AppendResponse(nil, assign) }},
	} {
		want, err := json.Marshal(tc.doc)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := tc.encode(); err != nil || string(got) != string(want) {
			t.Fatalf("%s: the encoder's bytes differ from json.Marshal's", tc.name)
		}
		marshal := testing.AllocsPerRun(20, func() { _, _ = json.Marshal(tc.doc) })
		ours := testing.AllocsPerRun(20, tc.write)
		if ours > marshal {
			t.Errorf("%s: %.0f allocs per response, json.Marshal alone makes %.0f", tc.name, ours, marshal)
		}
		t.Logf("%s: %.0f allocs per response, json.Marshal %.0f", tc.name, ours, marshal)
	}
}

// FuzzEncodeResult holds AppendResult to json.Marshal on any result
// json.Unmarshal can build, with one more object carrying an arbitrary,
// possibly non-finite, value.
func FuzzEncodeResult(f *testing.F) {
	full, err := json.Marshal(sampleResult(3, 2))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(full), `{}`, `null`, `{"objects":[],"gamma":{},"metrics":{}}`, `{"objects":[null,{"theta":[]}]}`,
		`{"id":"\u2028<&>\ud800","gamma":{"b":1,"a":2,"é":3}}`,
	} {
		f.Add([]byte(seed), 0.5)
	}
	f.Add([]byte(`{}`), math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, x float64) {
		var doc client.Result
		if json.Unmarshal(data, &doc) != nil {
			return
		}
		scantest.CheckEncode(t, &doc, AppendResult)
		doc.Objects = append(doc.Objects, client.ObjectResult{Theta: []float64{x}})
		scantest.CheckEncode(t, &doc, AppendResult)
	})
}

// TestResponsesDeclareContentLength: every body writeJSON and
// writeEncoded write reaches the client with a Content-Length — set by
// declareLength above net/http's 2 KiB buffer, by net/http below it — on
// a success and on the 500 an encode failure answers; the SDK sizes its
// read buffer from it.
func TestResponsesDeclareContentLength(t *testing.T) {
	large, small := sampleResult(50, 3), sampleResult(1, 2)
	encodeResult := func(res *client.Result) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			writeEncoded(w, http.StatusOK, 64, func(dst []byte) ([]byte, error) { return AppendResult(dst, res) })
		}
	}
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		code    int
	}{
		{"writeJSON large", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, http.StatusOK, large) }, http.StatusOK},
		{"writeJSON small", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, http.StatusOK, small) }, http.StatusOK},
		{"writeJSON error", func(w http.ResponseWriter, _ *http.Request) { writeJSON(w, http.StatusOK, math.NaN()) }, http.StatusInternalServerError},
		{"writeEncoded large", encodeResult(large), http.StatusOK},
		{"writeEncoded small", encodeResult(small), http.StatusOK},
		{"writeEncoded error", func(w http.ResponseWriter, _ *http.Request) {
			writeEncoded(w, http.StatusOK, 64, func(dst []byte) ([]byte, error) { return nil, errors.New("no") })
		}, http.StatusInternalServerError},
	} {
		ts := httptest.NewServer(tc.handler)
		resp, err := ts.Client().Get(ts.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.code {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("%s: Content-Length %d, transfer encoding %v, body %d bytes", tc.name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
}
