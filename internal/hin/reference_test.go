package hin

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// referenceDecode is the decoder FromJSONLimited used before the one-pass
// scanner: encoding/json into the wire structs, then referenceCheck, then a
// Builder replay. It is the oracle the scanner is tested against.
func referenceDecode(data []byte, lim Limits) (*Network, error) {
	var doc networkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("hin: parse network JSON: %w", err)
	}
	if err := referenceCheck(lim, &doc); err != nil {
		return nil, err
	}
	b := NewBuilder()
	for _, aj := range doc.Attributes {
		var kind Kind
		switch aj.Kind {
		case "categorical":
			kind = Categorical
		case "numeric":
			kind = Numeric
		default:
			return nil, fmt.Errorf("hin: unknown attribute kind %q", aj.Kind)
		}
		b.DeclareAttribute(AttrSpec{Name: aj.Name, Kind: kind, VocabSize: aj.VocabSize})
	}
	for _, oj := range doc.Objects {
		b.AddObject(oj.ID, oj.Type)
	}
	for _, oj := range doc.Objects {
		for attr, tcs := range oj.Terms {
			for _, tc := range tcs {
				b.AddTermCount(oj.ID, attr, tc.Term, tc.Count)
			}
		}
		for attr, xs := range oj.Numeric {
			for _, x := range xs {
				b.AddNumeric(oj.ID, attr, x)
			}
		}
	}
	for _, lj := range doc.Links {
		b.AddLink(lj.From, lj.To, lj.Relation, lj.Weight)
	}
	return b.Build()
}

// referenceCheck is the limit check referenceDecode runs on the fully
// materialized document.
func referenceCheck(l Limits, doc *networkJSON) error {
	if l.MaxObjects > 0 && len(doc.Objects) > l.MaxObjects {
		return &LimitError{Dimension: "objects", Got: len(doc.Objects), Max: l.MaxObjects}
	}
	if l.MaxLinks > 0 && len(doc.Links) > l.MaxLinks {
		return &LimitError{Dimension: "links", Got: len(doc.Links), Max: l.MaxLinks}
	}
	if l.MaxAttributes > 0 && len(doc.Attributes) > l.MaxAttributes {
		return &LimitError{Dimension: "attributes", Got: len(doc.Attributes), Max: l.MaxAttributes}
	}
	if l.MaxVocab > 0 {
		for _, aj := range doc.Attributes {
			if aj.VocabSize > l.MaxVocab {
				return &LimitError{Dimension: "vocabulary", Got: aj.VocabSize, Max: l.MaxVocab}
			}
		}
	}
	if l.MaxObservations > 0 {
		var obs int
		for _, oj := range doc.Objects {
			for _, tcs := range oj.Terms {
				obs += len(tcs)
			}
			for _, xs := range oj.Numeric {
				obs += len(xs)
			}
			if obs > l.MaxObservations {
				return &LimitError{Dimension: "observations", Got: obs, Max: l.MaxObservations}
			}
		}
	}
	return nil
}

// wireShape describes where the network document has recognised keys: a
// struct's fields (matched case-insensitively, as encoding/json does), a
// map's values (keys compared exactly), or an array's elements.
type wireShape struct {
	fields []string
	shapes []*wireShape // shape of each field's value
	mapOf  *wireShape
	elemOf *wireShape
	isMap  bool
}

var docShape = func() *wireShape {
	tc := &wireShape{fields: []string{"t", "c"}, shapes: make([]*wireShape, 2)}
	obsMap := &wireShape{isMap: true, mapOf: &wireShape{elemOf: tc}}
	obj := &wireShape{
		fields: []string{"id", "type", "terms", "numeric"},
		shapes: []*wireShape{nil, nil, obsMap, {isMap: true}},
	}
	link := &wireShape{fields: []string{"from", "to", "rel", "w"}, shapes: make([]*wireShape, 4)}
	attr := &wireShape{fields: []string{"name", "kind", "vocab"}, shapes: make([]*wireShape, 3)}
	return &wireShape{
		fields: []string{"objects", "links", "attributes"},
		shapes: []*wireShape{{elemOf: obj}, {elemOf: link}, {elemOf: attr}},
	}
}()

// repeatsRecognisedKey reports whether the document repeats a recognised
// key — a field name within one JSON object (folded with strings.EqualFold,
// which encoding/json documents as its key folding) or an attribute name
// within one terms or numeric map — before its first syntax error.
func repeatsRecognisedKey(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	repeated, _ := walkShape(dec, docShape)
	return repeated
}

// walkShape consumes one value from dec, checking it against shape (nil
// skips it). It stops at the first repeated key or decoder error.
func walkShape(dec *json.Decoder, shape *wireShape) (bool, error) {
	tok, err := dec.Token()
	if err != nil {
		return false, err
	}
	delim, ok := tok.(json.Delim)
	if !ok || delim == '}' || delim == ']' {
		return false, nil
	}
	if delim == '[' {
		var elem *wireShape
		if shape != nil {
			elem = shape.elemOf
		}
		for dec.More() {
			if repeated, err := walkShape(dec, elem); repeated || err != nil {
				return repeated, err
			}
		}
		_, err := dec.Token()
		return false, err
	}
	if shape != nil && shape.elemOf != nil {
		shape = nil // an object where an array belongs
	}
	seen := make(map[string]bool)
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false, err
		}
		key := tok.(string)
		var next *wireShape
		switch {
		case shape == nil:
		case shape.isMap:
			if seen[key] {
				return true, nil
			}
			seen[key] = true
			next = shape.mapOf
		default:
			for i, f := range shape.fields {
				if strings.EqualFold(key, f) {
					if seen[f] {
						return true, nil
					}
					seen[f] = true
					next = shape.shapes[i]
					break
				}
			}
		}
		if repeated, err := walkShape(dec, next); repeated || err != nil {
			return repeated, err
		}
	}
	_, err = dec.Token()
	return false, err
}

// checkDecodeMatchesReference decodes data with FromJSONLimited and with
// referenceDecode and fails t unless they agree: both succeed with
// identical networks, both fail with equal *LimitErrors, both fail
// otherwise, or the document repeats a recognised key and FromJSONLimited
// rejects it.
func checkDecodeMatchesReference(t testing.TB, data []byte, lim Limits) *Network {
	t.Helper()
	got, err := FromJSONLimited(data, lim)
	if repeatsRecognisedKey(data) {
		if err == nil {
			t.Fatalf("document with a repeated key accepted: %q", data)
		}
		return nil
	}
	want, refErr := referenceDecode(data, lim)
	switch {
	case err == nil && refErr == nil:
		checkSameNetwork(t, got, want)
		return got
	case err != nil && refErr != nil:
		var gotLim, wantLim *LimitError
		isGot, isWant := errors.As(err, &gotLim), errors.As(refErr, &wantLim)
		if isGot != isWant || (isGot && *gotLim != *wantLim) {
			t.Fatalf("decoders disagree on the error:\n got: %v\nwant: %v\ninput: %q", err, refErr, data)
		}
		return nil
	default:
		t.Fatalf("decoders disagree:\n got: %v\nwant: %v\ninput: %q", err, refErr, data)
		return nil
	}
}

// checkSameNetwork requires two networks to be identical: the same
// MarshalJSON bytes, relation order, and bit-identical term-count and
// numeric observation lists.
func checkSameNetwork(t testing.TB, got, want *Network) {
	t.Helper()
	gotJSON, err := got.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("networks differ:\n got: %s\nwant: %s", gotJSON, wantJSON)
	}
	if !slices.Equal(got.relations, want.relations) {
		t.Fatalf("relation order %q, want %q", got.relations, want.relations)
	}
	for a, spec := range want.attrs {
		for v := range want.objects {
			switch spec.Kind {
			case Categorical:
				if !sameTermCounts(got.TermCounts(a, v), want.TermCounts(a, v)) {
					t.Fatalf("attr %d object %d: term counts %v, want %v", a, v, got.TermCounts(a, v), want.TermCounts(a, v))
				}
			case Numeric:
				if !sameFloats(got.NumericObs(a, v), want.NumericObs(a, v)) {
					t.Fatalf("attr %d object %d: observations %v, want %v", a, v, got.NumericObs(a, v), want.NumericObs(a, v))
				}
			}
		}
	}
}

func sameTermCounts(x, y []TermCount) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i].Term != y[i].Term || math.Float64bits(x[i].Count) != math.Float64bits(y[i].Count) {
			return false
		}
	}
	return true
}

func sameFloats(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}
