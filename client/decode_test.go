package client

import (
	"testing"
	"unsafe"

	"genclus/internal/jsonscan/scantest"
)

// resultShape is where the job result document has recognised keys.
var resultShape = func() *scantest.Shape {
	object := &scantest.Shape{Fields: []string{"id", "type", "cluster", "theta"}}
	return &scantest.Shape{
		Fields: []string{"id", "k", "objects", "gamma", "objective", "pseudo_ll", "em_iterations", "outer_iterations", "metrics"},
		Shapes: []*scantest.Shape{nil, nil, {ElemOf: object}, {IsMap: true}, nil, nil, nil, nil,
			{Fields: []string{"nmi", "ari", "purity", "labeled_objects"}}},
	}
}()

// resultCases covers each rule of the result decoder's contract with
// json.Unmarshal: nil and empty lists and maps, null elements and fields,
// folded and unknown keys, type mismatches, string unquoting, repeated
// keys and trailing data. They seed FuzzDecodeResult.
var resultCases = []string{
	`{"id":"job_1","k":2,"objects":[{"id":"A1","type":"author","cluster":1,"theta":[0.25,0.75]},{"id":"P1","type":"paper","cluster":0,"theta":[0.999999999,1e-9]}],"gamma":{"writes":1.5,"cites":0},"objective":-1234.5,"pseudo_ll":-99.25,"em_iterations":158,"outer_iterations":10,"metrics":{"nmi":0.9,"ari":0.8,"purity":0.95,"labeled_objects":2}}`,
	`null`, `{}`, ` {"k":1} `,
	`{"objects":null,"gamma":null,"metrics":null}`, `{"objects":[],"gamma":{},"metrics":{}}`,
	`{"objects":[null,{}]}`, `{"objects":[{"theta":[]},{"theta":null},{"theta":[null,-0,5e-324]}]}`,
	`{"objects":[{"id":null,"type":null,"cluster":null}],"gamma":{"r":null},"objective":null,"metrics":{"nmi":null}}`,
	`{"ID":"j","K":2,"OBJECTS":[{"Id":"a","TYPE":"t","Cluster":1,"THETA":[1]}],"Gamma":{"R":1,"r":2},"Pseudo_LL":1,"EM_Iterations":3,"Metrics":{"NMI":1,"Labeled_Objects":4}}`,
	`{"extra":[1,{"a":null}],"objects":[{"zzz":{},"theta":[1]}],"metrics":{"x":[]}}`,
	`{"id":"é\ud800\"<&>\u2028","objects":[{"id":"a\u0000b","type":"é"}],"gamma":{"r":1}}`,
	"{\"id\":\"a\xffb\",\"objects\":[{\"id\":\"\xed\xa0\x80\",\"type\":\"t\xc3\"}]}",
	`{"k":1.5}`, `{"k":"1"}`, `{"k":99999999999999999999}`, `{"objective":"1"}`, `{"objective":1e400}`,
	`{"objects":{}}`, `{"objects":[1]}`, `{"objects":[{"theta":{}}]}`, `{"objects":[{"theta":[true]}]}`,
	`{"gamma":[]}`, `{"gamma":{"r":"1"}}`, `{"metrics":[]}`, `{"metrics":{"labeled_objects":1.5}}`,
	`{"k":2,"k":3}`, `{"objects":[{"theta":[1],"THETA":[2]}]}`, `{"gamma":{"r":1,"r":2}}`, `{"metrics":{"nmi":1,"NMI":2}}`,
	`[]`, ``, `{"k":1} x`, `{"k":1`, `{"objects":[{"theta":[1,]}]}`,
}

// TestDecodeResultMatchesUnmarshal holds decodeResult to json.Unmarshal
// on every case.
func TestDecodeResultMatchesUnmarshal(t *testing.T) {
	for _, c := range resultCases {
		scantest.CheckDecode(t, []byte(c), resultShape, decodeResult)
	}
}

// TestDecodeResultKeepsNoBody checks that a decoded result's strings and
// rows point outside the document bytes, so a caller holding the result
// does not hold the body.
func TestDecodeResultKeepsNoBody(t *testing.T) {
	data := []byte(resultCases[0])
	res := scantest.CheckDecode(t, data, resultShape, decodeResult)
	lo, hi := uintptr(unsafe.Pointer(&data[0])), uintptr(unsafe.Pointer(&data[len(data)-1]))
	inBody := func(p unsafe.Pointer) bool { return uintptr(p) >= lo && uintptr(p) <= hi }
	if inBody(unsafe.Pointer(unsafe.StringData(res.ID))) {
		t.Error("the result id points into the body")
	}
	for _, o := range res.Objects {
		if inBody(unsafe.Pointer(unsafe.StringData(o.ID))) || inBody(unsafe.Pointer(unsafe.StringData(o.Type))) {
			t.Errorf("object %q: a string points into the body", o.ID)
		}
	}
	for rel := range res.Gamma {
		if inBody(unsafe.Pointer(unsafe.StringData(rel))) {
			t.Errorf("gamma key %q points into the body", rel)
		}
	}
}

// FuzzDecodeResult holds decodeResult to json.Unmarshal on arbitrary
// bytes: the same value under reflect.DeepEqual, or an error from both;
// a document that repeats a recognised key must fail.
func FuzzDecodeResult(f *testing.F) {
	for _, c := range resultCases {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		scantest.CheckDecode(t, data, resultShape, decodeResult)
	})
}
