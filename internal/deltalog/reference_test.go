package deltalog

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"genclus/internal/hin"
	"genclus/internal/jsonscan/scantest"
)

// referenceDecode is the decoder Decode used before the one-pass scanner:
// encoding/json into a Mutation, then the op check and validate. It is
// the oracle the scanner is tested against.
func referenceDecode(op Op, data []byte, lim hin.Limits) (*Mutation, error) {
	m := &Mutation{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, formatErrf("parse mutation: %v", err)
	}
	if m.Op != "" && m.Op != op {
		return nil, formatErrf("document op %q does not match endpoint op %q", m.Op, op)
	}
	m.Op = op
	if err := m.validate(lim); err != nil {
		return nil, err
	}
	return m, nil
}

// referenceDecodeRecord is DecodeRecord's oracle, as referenceDecode is
// Decode's.
func referenceDecodeRecord(data []byte, lim hin.Limits) (*Mutation, error) {
	m := &Mutation{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, formatErrf("parse mutation record: %v", err)
	}
	switch m.Op {
	case OpEdges, OpObjects, OpAttributes:
	default:
		return nil, formatErrf("unknown mutation op %q", m.Op)
	}
	if err := m.validate(lim); err != nil {
		return nil, err
	}
	return m, nil
}

// mutationShape is where a mutation document has recognised keys.
var mutationShape = func() *scantest.Shape {
	link := &scantest.Shape{Fields: []string{"from", "to", "rel", "w"}}
	ref := &scantest.Shape{Fields: []string{"from", "to", "rel"}}
	terms := &scantest.Shape{IsMap: true, MapOf: &scantest.Shape{ElemOf: &scantest.Shape{Fields: []string{"t", "c"}}}}
	numeric := &scantest.Shape{IsMap: true}
	obj := &scantest.Shape{Fields: []string{"id", "type", "terms", "numeric"}, Shapes: []*scantest.Shape{nil, nil, terms, numeric}}
	patch := &scantest.Shape{Fields: []string{"id", "terms", "numeric"}, Shapes: []*scantest.Shape{nil, terms, numeric}}
	return &scantest.Shape{
		Fields: []string{"op", "add", "remove", "objects", "links", "set"},
		Shapes: []*scantest.Shape{nil, {ElemOf: link}, {ElemOf: ref}, {ElemOf: obj}, {ElemOf: link}, {ElemOf: patch}},
	}
}()

// checkDecodeMatchesReference decodes data under lim with Decode for each
// op and with DecodeRecord, and with their oracles, and fails t unless
// each pair agrees or the document repeats a recognised key and the
// scanner rejects it with a *FormatError. Agreement is the same error
// type and, for every error but a parse error, the same message; or
// reflect.DeepEqual mutations with equal Encode bytes.
func checkDecodeMatchesReference(t testing.TB, data []byte, lim hin.Limits) {
	t.Helper()
	repeated := scantest.RepeatsKey(data, mutationShape)
	check := func(what string, got *Mutation, err error, want *Mutation, refErr error) {
		t.Helper()
		if repeated {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("%s: document with a repeated key: got %v, want a *FormatError\ninput: %q", what, err, data)
			}
			return
		}
		if errKind(err) != errKind(refErr) {
			t.Fatalf("%s: decoders disagree:\n got: %v\nwant: %v\ninput: %q", what, err, refErr, data)
		}
		if err != nil {
			if errKind(err) != "parse" && err.Error() != refErr.Error() {
				t.Fatalf("%s: decoders disagree on the error:\n got: %v\nwant: %v\ninput: %q", what, err, refErr, data)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: mutations differ:\n got: %#v\nwant: %#v\ninput: %q", what, got, want, data)
		}
		gotEnc, err := got.Encode()
		if err != nil {
			t.Fatal(err)
		}
		wantEnc, err := want.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotEnc, wantEnc) {
			t.Fatalf("%s: encodings differ:\n got: %s\nwant: %s\ninput: %q", what, gotEnc, wantEnc, data)
		}
	}
	for _, op := range []Op{OpEdges, OpObjects, OpAttributes} {
		got, err := Decode(op, data, lim)
		want, refErr := referenceDecode(op, data, lim)
		check("Decode("+string(op)+")", got, err, want, refErr)
	}
	got, err := DecodeRecord(data, lim)
	want, refErr := referenceDecodeRecord(data, lim)
	check("DecodeRecord", got, err, want, refErr)
}

// errKind classifies a decode error: a parse error, another format error,
// a limit error, or none.
func errKind(err error) string {
	var fe *FormatError
	var le *hin.LimitError
	switch {
	case err == nil:
		return "none"
	case errors.As(err, &le):
		return "limit"
	case errors.As(err, &fe) && strings.HasPrefix(fe.Msg, "parse mutation"):
		return "parse"
	case errors.As(err, &fe):
		return "format"
	}
	return "untyped"
}

// decodeCases are documents at the edges of the decoder contract. Each is
// checked against the oracle by TestDecodeMatchesReference and seeds
// FuzzDecodeMutation's corpus.
var decodeCases = []string{
	// null, empty and absent: nil where encoding/json leaves nil, empty
	// where it makes an empty slice or map.
	`null`,
	`{}`,
	`{"op":"edges","add":[],"remove":null}`,
	`{"op":"edges","add":[null,{"from":"a","to":"b","rel":"r","w":1}]}`,
	`{"op":"edges","add":[{"from":"a","to":"b","rel":"r","w":1}],"remove":[]}`,
	`{"op":"objects","objects":[{"id":"x","type":"t","terms":{},"numeric":null}],"links":[]}`,
	`{"op":"objects","objects":[{"id":"x","type":"t","terms":{"a":null,"b":[]},"numeric":{"n":[null,1,-0],"m":[]}}]}`,
	`{"op":"attributes","set":[{"id":"x","terms":{"text":null}}]}`,
	`{"op":"attributes","set":[null]}`,
	`{"op":null,"add":[{"from":"a","to":"b","rel":"r","w":1}]}`,
	// Keys: exact, then folded; unknown keys skipped and validated.
	`{"OP":"edges","Add":[{"FROM":"a","To":"b","REL":"r","W":2}],"REMOVE":[{"From":"b","TO":"a","Rel":"r"}]}`,
	`{"op":"objects","objectſ":[{"id":"x","type":"t"}]}`,
	`{"z":{"a":[1,{"b":null}]},"op":"edges","add":[{"from":"a","to":"b","rel":"r","w":1,"q":[true]}],"remove":[{"from":"a","to":"b","rel":"r","w":"x"}]}`,
	`{"op":"edges","z":[1,],"add":[{"from":"a","to":"b","rel":"r","w":1}]}`,
	`{"op":"objects","objects":[{"id":"x","type":"t","terms":{"text":[{"t":0,"c":1}],"TEXT":[{"t":1,"c":1}]}}]}`,
	// Types and numbers.
	`{"op":"edges","add":{"from":"a"}}`,
	`{"op":7}`,
	`{"op":"edges","add":[{"from":"a","to":"b","rel":"r","w":1e400}]}`,
	`{"op":"edges","add":[{"from":"a","to":"b","rel":"r","w":-0}]}`,
	`{"op":"objects","objects":[{"id":"x","type":"t","terms":{"text":[{"t":1.5,"c":1}]}}]}`,
	`{"op":"objects","objects":[{"id":"x","type":"t","terms":{"text":[null,{"t":0,"c":1}]}}]}`,
	`{"op":"objects","objects":[{"id":"x","type":"t","terms":{"text":{"t":0}}}]}`,
	`{"op":"objects","objects":[{"id":"x","type":"t","numeric":{"n":[0.1,4.9e-324,1E+2,123456789012345678]}}]}`,
	// Strings: encoding/json's unquoting.
	`{"op":"edges","add":[{"from":"é😀\"\\\/\n","to":"\ud800","rel":"r","w":1}]}`,
	"{\"op\":\"objects\",\"objects\":[{\"id\":\"a\xffb\",\"type\":\"t\",\"numeric\":{\"t\xc3\":[1]}}]}",
	`{"op":"edges","add":[{"from":"a","to":"b","rel":"r","w":1}]}`,
	// Trailing data and broken syntax.
	`{"op":"edges","add":[{"from":"a","to":"b","rel":"r","w":1}]} x`,
	`{"op":"edges","add":[{"from":"a","to":"b","rel":"r","w":1}]`,
	``,
	`[]`,
}

// TestDecodeMatchesReference holds Decode and DecodeRecord to their
// encoding/json oracles on the edge cases, the fixtures and the
// repeated-key documents, under limits and without.
func TestDecodeMatchesReference(t *testing.T) {
	lim := hin.Limits{MaxObjects: 2, MaxLinks: 2, MaxVocab: 8, MaxObservations: 3}
	docs := append([]string(nil), decodeCases...)
	for _, rc := range repeatedKeyCases {
		docs = append(docs, rc.doc, recordOf(rc.op, rc.doc))
	}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	for _, path := range fixtures {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(data))
	}
	// encoding/json's nesting bound of 10000, counted from the document
	// object, inside an unknown key of a term count six levels down: the
	// first two of each kind are within the bound, the third is past it.
	for _, n := range []int{9993, 9994, 9995} {
		deep := strings.Repeat("[", n) + strings.Repeat("]", n)
		docs = append(docs,
			`{"objects":[{"id":"x","type":"t","terms":{"a":[{"t":0,"c":1,"z":`+deep+`}]}}]}`,
			`{"set":[{"id":"x","numeric":{"b":[1]},"terms":{"a":[{"z":`+deep+`,"t":0,"c":1}]}}]}`)
	}
	for _, doc := range docs {
		checkDecodeMatchesReference(t, []byte(doc), lim)
		checkDecodeMatchesReference(t, []byte(doc), hin.Limits{})
	}
}
