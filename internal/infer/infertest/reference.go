// Package infertest is the assign request decoder's test oracle, shared by
// the infer tests and genclusd's FuzzDecodeAssignRequest: the
// encoding/json decoder that infer.DecodeRequest replaced, the edge-case
// documents of the decoder contract, and the check that holds the two
// decoders to it. Only tests import it.
package infertest

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"genclus/internal/hin"
	"genclus/internal/infer"
	"genclus/internal/jsonscan/scantest"
)

// ReferenceDecodeRequest is the decoder infer.DecodeRequest used before
// the one-pass scanner: encoding/json into an infer.RequestDoc, then the
// request checks, then one Query per object with its map-keyed
// observations sorted by attribute name.
func ReferenceDecodeRequest(data []byte, maxBatch int) (int, []infer.Query, error) {
	var req infer.RequestDoc
	if err := json.Unmarshal(data, &req); err != nil {
		return 0, nil, &infer.DecodeError{Msg: fmt.Sprintf("parse assign request: %v", err)}
	}
	if len(req.Objects) == 0 {
		return 0, nil, &infer.DecodeError{Msg: "assign request has no objects"}
	}
	if maxBatch > 0 && len(req.Objects) > maxBatch {
		return 0, nil, &infer.LimitError{Query: -1, What: "batch size", Got: len(req.Objects), Limit: maxBatch}
	}
	if req.TopK < 0 {
		return 0, nil, &infer.DecodeError{Msg: "top_k must be ≥ 0"}
	}
	queries := make([]infer.Query, len(req.Objects))
	for i, o := range req.Objects {
		q := infer.Query{ID: o.ID}
		if len(o.Links) > 0 {
			q.Links = make([]infer.Link, len(o.Links))
			for j, l := range o.Links {
				q.Links[j] = infer.Link{Relation: l.Relation, To: l.To, Weight: l.Weight}
			}
		}
		for _, name := range slices.Sorted(maps.Keys(o.Terms)) {
			src := o.Terms[name]
			co := infer.CatObs{Attr: name, Terms: make([]hin.TermCount, len(src))}
			for j, t := range src {
				co.Terms[j] = hin.TermCount{Term: t.Term, Count: t.Count}
			}
			q.Terms = append(q.Terms, co)
		}
		for _, name := range slices.Sorted(maps.Keys(o.Numeric)) {
			q.Numeric = append(q.Numeric, infer.NumObs{Attr: name, Values: o.Numeric[name]})
		}
		queries[i] = q
	}
	return req.TopK, queries, nil
}

// Case is one document of the decoder contract, with the batch bound it is
// decoded under.
type Case struct {
	Name     string
	Doc      string
	MaxBatch int
}

// Cases covers each rule of the decoder contract. Every case is checked
// against ReferenceDecodeRequest by TestDecodeRequestMatchesReference and
// seeds FuzzDecodeAssignRequest's corpus.
var Cases = []Case{
	// Errors, in order: parse error, no objects, batch size, top_k.
	{"parse error over the batch", `{"objects":[{},{},{}],"top_k":"x"}`, 2},
	{"syntax error over the batch", `{"objects":[{},{},{}],"top_k":1,}`, 2},
	{"no objects and negative top_k", `{"objects":[],"top_k":-1}`, 2},
	{"batch before top_k", `{"objects":[{},{},{}],"top_k":-1}`, 2},
	{"batch plus one", `{"objects":[{"id":"a"},{"id":"b"},{"id":"c","links":[{"rel":"r","to":"a","w":1}]}]}`, 2},
	{"batch exactly", `{"objects":[{"id":"a"},{"id":"b","links":[{"rel":"r","to":"a","w":1}]}]}`, 2},
	{"negative top_k", `{"objects":[{"id":"a"}],"top_k":-1}`, 0},
	{"top_k", `{"top_k":3,"objects":[{"id":"a"}]}`, 0},
	{"fractional top_k", `{"objects":[{"id":"a"}],"top_k":1.5}`, 0},
	{"overflowing top_k", `{"objects":[{"id":"a"}],"top_k":99999999999999999999}`, 0},
	{"string top_k", `{"objects":[{"id":"a"}],"top_k":"2"}`, 0},

	// Keys: exact, then encoding/json's case fold; unknown keys skipped
	// but validated.
	{"folded keys", `{"OBJECTS":[{"Id":"a","LINKS":[{"Rel":"r","TO":"b","W":2}],"Terms":{"text":[{"T":1,"C":2}]},"NUMERIC":{"n":[1]}}],"TOP_K":2}`, 0},
	{"unicode folded keys", `{"objectſ":[{"id":"a","linKs":[{"rel":"r","to":"b","w":1}]}]}`, 0},
	{"unknown keys skipped", `{"extra":{"a":[1,-2.5e3,{"b":null,"c":true,"d":"é"}],"e":false},"objects":[{"id":"a","x":[false],"links":[{"rel":"r","to":"b","w":1,"note":{"z":[[]]}}],"terms":{"text":[{"t":0,"c":1,"why":"?"}]}}]}`, 0},
	{"unknown key malformed", `{"extra":[1,2,],"objects":[{"id":"a"}]}`, 0},
	{"unknown key bad literal", `{"extra":nul,"objects":[{"id":"a"}]}`, 0},
	{"map keys are not folded", `{"objects":[{"terms":{"text":[{"t":0,"c":1}],"TEXT":[{"t":1,"c":1}]},"numeric":{"n":[1],"N":[2]}}]}`, 0},

	// null: a zero scalar, an absent array or map, an empty observation.
	{"null document", `null`, 0},
	{"null objects", `{"objects":null}`, 0},
	{"null object element", `{"objects":[null,{"id":"a"}]}`, 0},
	{"null fields", `{"objects":[{"id":null,"links":null,"terms":null,"numeric":null}],"top_k":null}`, 0},
	{"null link", `{"objects":[{"links":[null,{"rel":null,"to":null,"w":null}]}]}`, 0},
	{"null observations", `{"objects":[{"terms":{"text":null,"b":[null]},"numeric":{"n":[null,1],"m":null}}]}`, 0},
	{"empty observations", `{"objects":[{"links":[],"terms":{"text":[]},"numeric":{"n":[]}}]}`, 0},
	{"empty object", `{"objects":[{}]}`, 0},

	// Numbers: strict grammar; t and top_k are ints; floats parse as
	// strconv.ParseFloat(…, 64).
	{"fraction in t", `{"objects":[{"terms":{"text":[{"t":1.0,"c":1}]}}]}`, 0},
	{"exponent in t", `{"objects":[{"terms":{"text":[{"t":1e0,"c":1}]}}]}`, 0},
	{"overflowing t", `{"objects":[{"terms":{"text":[{"t":99999999999999999999,"c":1}]}}]}`, 0},
	{"large t", `{"objects":[{"terms":{"text":[{"t":-1234567890123456789,"c":1}]}}]}`, 0},
	{"negative zero t", `{"objects":[{"terms":{"text":[{"t":-0,"c":1}]}}]}`, 0},
	{"string t", `{"objects":[{"terms":{"text":[{"t":"1","c":1}]}}]}`, 0},
	{"overflowing count", `{"objects":[{"terms":{"text":[{"t":0,"c":1e309}]}}]}`, 0},
	{"overflowing value", `{"objects":[{"numeric":{"n":[1e309]}}]}`, 0},
	{"underflowing count", `{"objects":[{"terms":{"text":[{"t":0,"c":1e-400}]}}]}`, 0},
	{"float forms", `{"objects":[{"numeric":{"n":[1.5e300,-0,123456789012345678,0.1,-2.5E-3,4.9e-324,1E+2,999999999999999,1000000000000000]},"links":[{"rel":"r","to":"b","w":0.30000000000000004}]}]}`, 0},
	{"negative zero weight", `{"objects":[{"links":[{"rel":"r","to":"b","w":-0}]}]}`, 0},
	{"leading zero", `{"objects":[{"links":[{"rel":"r","to":"b","w":01}]}]}`, 0},
	{"bare minus", `{"objects":[{"links":[{"rel":"r","to":"b","w":-}]}]}`, 0},
	{"trailing point", `{"objects":[{"links":[{"rel":"r","to":"b","w":1.}]}]}`, 0},
	{"leading point", `{"objects":[{"links":[{"rel":"r","to":"b","w":.5}]}]}`, 0},
	{"empty exponent", `{"objects":[{"links":[{"rel":"r","to":"b","w":1e+}]}]}`, 0},
	{"boolean weight", `{"objects":[{"links":[{"rel":"r","to":"b","w":true}]}]}`, 0},
	{"string weight", `{"objects":[{"links":[{"rel":"r","to":"b","w":"1"}]}]}`, 0},
	{"numeric id", `{"objects":[{"id":7}]}`, 0},

	// Strings: encoding/json's unquoting, invalid UTF-8 as U+FFFD.
	{"escaped ids", `{"objects":[{"id":"é😀\"\\\/\b\f\n\r\t","links":[{"rel":"<T,T>","to":"é😀\"\\/\b\f\n\r\t","w":1}]}]}`, 0},
	{"non-ASCII ids", `{"objects":[{"id":"Zürich–東京","links":[{"rel":"näher","to":"Москва","w":1}],"terms":{"tëxt":[{"t":1,"c":1}],"text":[{"t":2,"c":1}]}}]}`, 0},
	{"lone surrogates", `{"objects":[{"id":"\ud800"},{"id":"\ud800A"},{"id":"\udc00x"},{"id":"\ud83d\ud83d"}]}`, 0},
	{"invalid utf-8", "{\"objects\":[{\"id\":\"a\xffb\",\"links\":[{\"rel\":\"\xed\xa0\x80\",\"to\":\"a\xfeb\",\"w\":1}],\"terms\":{\"t\xc3\":[{\"t\":0,\"c\":1}]}}]}", 0},
	{"escaped attribute order", `{"objects":[{"numeric":{"\u0062":[2],"a":[1]}}]}`, 0},
	{"control character", "{\"objects\":[{\"id\":\"a\x01\"}]}", 0},
	{"bad escape", `{"objects":[{"id":"\x41"}]}`, 0},
	{"short unicode escape", `{"objects":[{"id":"\u12"}]}`, 0},
	{"unterminated string", `{"objects":[{"id":"a`, 0},

	// Attribute order: sorted by name, whatever the document order.
	{"attributes sorted", `{"objects":[{"terms":{"z":[{"t":0,"c":1}],"a":[{"t":1,"c":2}],"m":[]},"numeric":{"y":[3],"b":[1,2]}}]}`, 0},

	// Trailing data is rejected; trailing whitespace is not.
	{"trailing data", `{"objects":[{"id":"a"}]} x`, 0},
	{"two documents", `{"objects":[{"id":"a"}]}{}`, 0},
	{"trailing whitespace", " \t{\"objects\":[{\"id\":\"a\"}]}\r\n ", 0},
	{"empty input", ``, 0},
	{"array document", `[{"id":"a"}]`, 0},
	{"objects object", `{"objects":{"id":"a"}}`, 0},
	{"terms array", `{"objects":[{"terms":[{"t":0,"c":1}]}]}`, 0},

	// A repeated recognised key is rejected; a repeated unknown key is not.
	{"repeated objects", `{"objects":[{"id":"a"}],"objects":[{"id":"b"}]}`, 0},
	{"repeated folded top_k", `{"objects":[{"id":"a"}],"top_k":1,"TOP_K":2}`, 0},
	{"repeated folded id", `{"objects":[{"id":"a","ID":"b"}]}`, 0},
	{"repeated link field", `{"objects":[{"links":[{"rel":"r","to":"b","w":1,"w":2}]}]}`, 0},
	{"repeated term field", `{"objects":[{"terms":{"text":[{"t":0,"c":1,"T":1}]}}]}`, 0},
	{"repeated term attribute", `{"objects":[{"terms":{"text":[{"t":0,"c":1}],"text":[{"t":1,"c":1}]}}]}`, 0},
	{"repeated escaped numeric attribute", `{"objects":[{"numeric":{"x":[1],"\u0078":null}}]}`, 0},
	{"repeated key over the batch", `{"objects":[{},{},{"id":"a","id":"b"}]}`, 2},
	{"repeated unknown key", `{"z":1,"z":[2],"objects":[{"id":"a","q":1,"q":2}]}`, 0},
}

// requestShape is where the assign request document has recognised keys.
var requestShape = func() *scantest.Shape {
	tc := &scantest.Shape{Fields: []string{"t", "c"}}
	link := &scantest.Shape{Fields: []string{"rel", "to", "w"}}
	obj := &scantest.Shape{
		Fields: []string{"id", "links", "terms", "numeric"},
		Shapes: []*scantest.Shape{nil, {ElemOf: link}, {IsMap: true, MapOf: &scantest.Shape{ElemOf: tc}}, {IsMap: true}},
	}
	return &scantest.Shape{
		Fields: []string{"objects", "top_k"},
		Shapes: []*scantest.Shape{{ElemOf: obj}},
	}
}()

// RepeatsRecognisedKey reports whether the document repeats a recognised
// key — a field name within one JSON object or an attribute name within
// one terms or numeric map — before its first syntax error.
func RepeatsRecognisedKey(data []byte) bool { return scantest.RepeatsKey(data, requestShape) }

// CheckMatchesReference decodes data with infer.DecodeRequest and with
// ReferenceDecodeRequest under maxBatch and fails t unless they agree, or
// the document repeats a recognised key and DecodeRequest rejects it with
// a *infer.DecodeError. Agreement is the same error type and, for every
// error but a parse error, the same error; or the same top_k and queries
// equal bit for bit. It returns DecodeRequest's results.
func CheckMatchesReference(t testing.TB, data []byte, maxBatch int) (int, []infer.Query, error) {
	t.Helper()
	topK, got, err := infer.DecodeRequest(data, maxBatch)
	if RepeatsRecognisedKey(data) {
		var de *infer.DecodeError
		if !errors.As(err, &de) {
			t.Fatalf("document with a repeated key: got %v, want a *DecodeError\ninput: %q", err, data)
		}
		return topK, got, err
	}
	wantTopK, want, refErr := ReferenceDecodeRequest(data, maxBatch)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("decoders disagree:\n got: %v\nwant: %v\ninput: %q", err, refErr, data)
	}
	if err != nil {
		var gotDec, wantDec *infer.DecodeError
		var gotLim, wantLim *infer.LimitError
		switch {
		case errors.As(refErr, &wantLim):
			if !errors.As(err, &gotLim) || *gotLim != *wantLim {
				t.Fatalf("decoders disagree on the error:\n got: %v\nwant: %v\ninput: %q", err, refErr, data)
			}
		case errors.As(refErr, &wantDec):
			parse := strings.HasPrefix(wantDec.Msg, "parse assign request: ")
			if !errors.As(err, &gotDec) || parse != strings.HasPrefix(gotDec.Msg, "parse assign request: ") || (!parse && gotDec.Msg != wantDec.Msg) {
				t.Fatalf("decoders disagree on the error:\n got: %v\nwant: %v\ninput: %q", err, refErr, data)
			}
		default:
			t.Fatalf("reference returned untyped error %T: %v", refErr, refErr)
		}
		return topK, got, err
	}
	if topK != wantTopK {
		t.Fatalf("top_k %d, want %d\ninput: %q", topK, wantTopK, data)
	}
	if msg := diffQueries(got, want); msg != "" {
		t.Fatalf("%s\ninput: %q", msg, data)
	}
	return topK, got, err
}

// diffQueries describes the first difference between two query lists,
// comparing floats by their bits, or returns "".
func diffQueries(got, want []infer.Query) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d queries, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.ID != w.ID {
			return fmt.Sprintf("query %d: id %q, want %q", i, g.ID, w.ID)
		}
		if !slices.EqualFunc(g.Links, w.Links, func(a, b infer.Link) bool {
			return a.Relation == b.Relation && a.To == b.To && sameBits(a.Weight, b.Weight)
		}) {
			return fmt.Sprintf("query %d: links %v, want %v", i, g.Links, w.Links)
		}
		if !slices.EqualFunc(g.Terms, w.Terms, func(a, b infer.CatObs) bool {
			return a.Attr == b.Attr && slices.EqualFunc(a.Terms, b.Terms, func(x, y hin.TermCount) bool {
				return x.Term == y.Term && sameBits(x.Count, y.Count)
			})
		}) {
			return fmt.Sprintf("query %d: terms %v, want %v", i, g.Terms, w.Terms)
		}
		if !slices.EqualFunc(g.Numeric, w.Numeric, func(a, b infer.NumObs) bool {
			return a.Attr == b.Attr && slices.EqualFunc(a.Values, b.Values, sameBits)
		}) {
			return fmt.Sprintf("query %d: numeric %v, want %v", i, g.Numeric, w.Numeric)
		}
	}
	return ""
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// CloneObject describes object v of net as an out-of-sample query, the
// way genclus's benchmark clones training objects into assign traffic:
// its out-links and its observations, under a new id.
func CloneObject(net *hin.Network, v int) infer.ObjectDoc {
	q := infer.ObjectDoc{ID: "q-" + net.Object(v).ID}
	for _, e := range net.OutEdges(v) {
		q.Links = append(q.Links, infer.LinkDoc{Relation: net.RelationName(e.Rel), To: net.Object(e.To).ID, Weight: e.Weight})
	}
	for a, spec := range net.Attrs() {
		if !net.HasObservation(a, v) {
			continue
		}
		switch spec.Kind {
		case hin.Categorical:
			if q.Terms == nil {
				q.Terms = make(map[string][]infer.TermDoc)
			}
			for _, tc := range net.TermCounts(a, v) {
				q.Terms[spec.Name] = append(q.Terms[spec.Name], infer.TermDoc{Term: tc.Term, Count: tc.Count})
			}
		case hin.Numeric:
			if q.Numeric == nil {
				q.Numeric = make(map[string][]float64)
			}
			q.Numeric[spec.Name] = append([]float64(nil), net.NumericObs(a, v)...)
		}
	}
	return q
}

// RequestBodies encodes n assign request bodies of per objects each,
// cloned with CloneObject from the objects of net that have both
// out-links and observations, taken in order and wrapping around.
func RequestBodies(net *hin.Network, n, per int) ([][]byte, error) {
	var pool []int
	for v := 0; v < net.NumObjects(); v++ {
		if net.OutDegree(v) == 0 {
			continue
		}
		for a := 0; a < net.NumAttrs(); a++ {
			if net.HasObservation(a, v) {
				pool = append(pool, v)
				break
			}
		}
	}
	if len(pool) == 0 {
		return nil, errors.New("infertest: no object has both links and observations")
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		var req infer.RequestDoc
		for j := 0; j < per; j++ {
			req.Objects = append(req.Objects, CloneObject(net, pool[(i*per+j)%len(pool)]))
		}
		var err error
		if bodies[i], err = json.Marshal(req); err != nil {
			return nil, err
		}
	}
	return bodies, nil
}
