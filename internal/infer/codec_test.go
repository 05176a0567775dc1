package infer_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"genclus/internal/datagen"
	"genclus/internal/infer"
	"genclus/internal/infer/infertest"
	"genclus/internal/jsonscan/scantest"
)

// responseShape is where the assign reply document has recognised keys.
var responseShape = func() *scantest.Shape {
	top := &scantest.Shape{Fields: []string{"cluster", "p"}}
	assignment := &scantest.Shape{
		Fields: []string{"id", "cluster", "theta", "top", "fold_in_iters"},
		Shapes: []*scantest.Shape{nil, nil, nil, {ElemOf: top}},
	}
	return &scantest.Shape{
		Fields: []string{"model_id", "k", "assignments", "batched"},
		Shapes: []*scantest.Shape{nil, nil, {ElemOf: assignment}},
	}
}()

// responseCases covers each rule of the reply decoder's contract with
// json.Unmarshal: nil and empty lists, null elements and fields, folded
// and unknown keys, type mismatches, string unquoting, repeated keys and
// trailing data. They seed FuzzDecodeAssignResponse.
var responseCases = []string{
	`{"model_id":"mdl_1","k":2,"assignments":[{"id":"a","cluster":1,"theta":[0.25,0.75],"top":[{"cluster":1,"p":0.75},{"cluster":0,"p":0.25}],"fold_in_iters":3},{"cluster":0,"theta":[1e-9,0.999999999],"top":[{"cluster":0,"p":0.999999999}],"fold_in_iters":1}],"batched":false}`,
	`null`, `{}`, ` {"k":1} `,
	`{"assignments":null}`, `{"assignments":[]}`, `{"assignments":[null,{}]}`,
	`{"assignments":[{"theta":[],"top":[]}]}`,
	`{"assignments":[{"theta":null,"top":null}]}`,
	`{"assignments":[{"theta":[null,1,-0,5e-324],"top":[null,{"cluster":null,"p":null}]}]}`,
	`{"MODEL_ID":"m","K":2,"Assignments":[{"ID":"x","Theta":[1],"TOP":[{"P":1,"CLUSTER":0}],"Fold_In_Iters":1}],"BATCHED":true}`,
	`{"extra":[1,{"a":null}],"assignments":[{"zzz":{},"theta":[1]}],"batched":null}`,
	`{"model_id":"é\ud800\"<&>\u2028","assignments":[{"id":"a\u0000b"}]}`,
	"{\"model_id\":\"a\xffb\",\"assignments\":[{\"id\":\"\xed\xa0\x80\"}]}",
	`{"batched":"true"}`, `{"batched":1}`, `{"batched":tru}`, `{"k":1.5}`, `{"k":"1"}`, `{"k":99999999999999999999}`,
	`{"assignments":{}}`, `{"assignments":[1]}`, `{"assignments":[{"theta":{}}]}`,
	`{"assignments":[{"theta":[1e400]}]}`, `{"assignments":[{"top":[{"p":"x"}]}]}`, `{"assignments":[{"top":[[]]}]}`,
	`{"k":2,"k":3}`, `{"assignments":[{"theta":[1],"THETA":[2]}]}`, `{"assignments":[{"top":[{"p":1,"P":2}]}]}`,
	`[]`, ``, `{"k":1} x`, `{"k":1`, `{"assignments":[{"theta":[1,]}]}`,
}

// TestDecodeResponseMatchesUnmarshal holds DecodeResponse to
// json.Unmarshal on every case and on replies built from real engine
// output.
func TestDecodeResponseMatchesUnmarshal(t *testing.T) {
	for _, c := range responseCases {
		scantest.CheckDecode(t, []byte(c), responseShape, infer.DecodeResponse)
	}
	for _, doc := range sampleResponses(t) {
		if data, err := json.Marshal(doc); err == nil {
			scantest.CheckDecode(t, data, responseShape, infer.DecodeResponse)
		}
	}
}

// TestEncodeResponseMatchesMarshal holds AppendResponse to json.Marshal.
func TestEncodeResponseMatchesMarshal(t *testing.T) {
	for _, doc := range sampleResponses(t) {
		scantest.CheckEncode(t, doc, infer.AppendResponse)
	}
	for _, c := range responseCases {
		var doc infer.ResponseDoc
		if json.Unmarshal([]byte(c), &doc) == nil {
			scantest.CheckEncode(t, &doc, infer.AppendResponse)
		}
	}
}

// TestEncodeRequestMatchesMarshal holds AppendRequest to json.Marshal on
// the decoder contract's documents, on bodies cloned from an A–C–P
// network, and on values json.Marshal rejects.
func TestEncodeRequestMatchesMarshal(t *testing.T) {
	for _, c := range infertest.Cases {
		var doc infer.RequestDoc
		if json.Unmarshal([]byte(c.Doc), &doc) == nil {
			scantest.CheckEncode(t, &doc, infer.AppendRequest)
		}
	}
	ds, err := datagen.Biblio(datagen.DefaultBiblioConfig(datagen.SchemaACP, 1))
	if err != nil {
		t.Fatal(err)
	}
	bodies, err := infertest.RequestBodies(ds.Net, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range bodies {
		var doc infer.RequestDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		scantest.CheckEncode(t, &doc, infer.AppendRequest)
	}
	for _, doc := range []infer.RequestDoc{
		{},
		{Objects: []infer.ObjectDoc{}},
		{Objects: []infer.ObjectDoc{{}, {ID: "<&>\u2028é\xff"}}, TopK: -3},
		{Objects: []infer.ObjectDoc{{Links: []infer.LinkDoc{}, Terms: map[string][]infer.TermDoc{}, Numeric: map[string][]float64{}}}},
		{Objects: []infer.ObjectDoc{{Terms: map[string][]infer.TermDoc{"b": nil, "a": {}, "<": {{Term: -1, Count: 1e-7}}}, Numeric: map[string][]float64{"z": nil, "y": {}}}}},
		{Objects: []infer.ObjectDoc{{Links: []infer.LinkDoc{{Relation: "r", To: "x", Weight: math.NaN()}}}}},
		{Objects: []infer.ObjectDoc{{Terms: map[string][]infer.TermDoc{"t": {{Count: math.Inf(1)}}}}}},
		{Objects: []infer.ObjectDoc{{Numeric: map[string][]float64{"n": {1, math.Inf(-1)}}}}},
	} {
		scantest.CheckEncode(t, &doc, infer.AppendRequest)
	}
}

// sampleResponses builds reply documents shaped like genclusd's, with
// ids that need escaping, plus the nil, empty and non-finite corners.
func sampleResponses(t *testing.T) []*infer.ResponseDoc {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	full := &infer.ResponseDoc{ModelID: "mdl_<&>", K: 4}
	for i, id := range []string{"", "q-P0001", "<&>", "\u2028\u2029", "Zürich", "a\xffb"} {
		theta := make([]float64, 4)
		sum := 0.0
		for k := range theta {
			theta[k] = rng.ExpFloat64() * math.Pow(10, -float64(rng.Intn(12)))
			sum += theta[k]
		}
		for k := range theta {
			theta[k] /= sum
		}
		full.Assignments = append(full.Assignments, infer.AssignmentDoc{
			ID: id, Cluster: i % 4, Theta: theta,
			Top: []infer.ClusterProbDoc{{Cluster: i % 4, P: theta[i%4]}, {Cluster: (i + 1) % 4, P: theta[(i+1)%4]}}, FoldInIters: i + 1,
		})
	}
	return []*infer.ResponseDoc{
		full,
		{},
		{Assignments: []infer.AssignmentDoc{}, Batched: true},
		{Assignments: []infer.AssignmentDoc{{}, {Theta: []float64{}, Top: []infer.ClusterProbDoc{}}}},
		{Assignments: []infer.AssignmentDoc{{Theta: []float64{math.NaN()}}}},
		{Assignments: []infer.AssignmentDoc{{Top: []infer.ClusterProbDoc{{P: math.Inf(1)}}}}},
	}
}

// FuzzEncodeAssignRequest holds AppendRequest to json.Marshal on any
// request json.Unmarshal can build, with one more object carrying an
// arbitrary, possibly non-finite, value.
func FuzzEncodeAssignRequest(f *testing.F) {
	for _, c := range infertest.Cases {
		f.Add([]byte(c.Doc), 0.5)
	}
	f.Add([]byte(`{"objects":[{"id":"\u2028"}]}`), math.NaN())
	f.Fuzz(func(t *testing.T, data []byte, x float64) {
		var doc infer.RequestDoc
		if json.Unmarshal(data, &doc) != nil {
			return
		}
		scantest.CheckEncode(t, &doc, infer.AppendRequest)
		doc.Objects = append(doc.Objects, infer.ObjectDoc{Numeric: map[string][]float64{"x": {x}}})
		scantest.CheckEncode(t, &doc, infer.AppendRequest)
	})
}

// FuzzEncodeAssignResponse holds AppendResponse to json.Marshal on any
// reply json.Unmarshal can build, with one more assignment carrying an
// arbitrary, possibly non-finite, probability.
func FuzzEncodeAssignResponse(f *testing.F) {
	for _, c := range responseCases {
		f.Add([]byte(c), 0.5)
	}
	f.Add([]byte(`{}`), math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, x float64) {
		var doc infer.ResponseDoc
		if json.Unmarshal(data, &doc) != nil {
			return
		}
		scantest.CheckEncode(t, &doc, infer.AppendResponse)
		doc.Assignments = append(doc.Assignments, infer.AssignmentDoc{Theta: []float64{x}})
		scantest.CheckEncode(t, &doc, infer.AppendResponse)
	})
}

// FuzzDecodeAssignResponse holds DecodeResponse to json.Unmarshal on
// arbitrary bytes: the same value under reflect.DeepEqual, or an error
// from both; a document that repeats a recognised key must fail.
func FuzzDecodeAssignResponse(f *testing.F) {
	for _, c := range responseCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		scantest.CheckDecode(t, data, responseShape, infer.DecodeResponse)
	})
}
