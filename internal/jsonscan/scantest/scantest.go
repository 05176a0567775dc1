// Package scantest is the test side of the hand-written wire codecs. It
// finds the decoders' one rule beyond encoding/json — a recognised key
// repeated within one JSON object, or a key repeated within one map, is an
// error — with encoding/json's own tokenizer, so the decoders' oracle
// tests can tell that deviation from a disagreement. CheckEncode and
// CheckDecode hold an encoder to json.Marshal and a decoder to
// json.Unmarshal. Only tests import it.
package scantest

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// CheckEncode fails t unless encode writes json.Marshal's bytes for doc,
// or both fail.
func CheckEncode[T any](t testing.TB, doc *T, encode func([]byte, *T) ([]byte, error)) {
	t.Helper()
	want, werr := json.Marshal(doc)
	got, err := encode(nil, doc)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("encoders disagree: error %v, json.Marshal's %v\ndoc: %+v", err, werr, doc)
	case err == nil && !bytes.Equal(got, want):
		t.Fatalf("encoders disagree:\n got: %s\nwant: %s", got, want)
	}
}

// CheckDecode fails t unless decode builds from data the value
// json.Unmarshal builds, under reflect.DeepEqual, or both fail; a document
// that repeats a recognised key of sh must fail instead. It returns
// decode's value.
func CheckDecode[T any](t testing.TB, data []byte, sh *Shape, decode func([]byte, *T) error) *T {
	t.Helper()
	got := new(T)
	err := decode(data, got)
	if RepeatsKey(data, sh) {
		if err == nil {
			t.Fatalf("document with a repeated key decoded without error\ninput: %q", data)
		}
		return got
	}
	want := new(T)
	werr := json.Unmarshal(data, want)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("decoders disagree: error %v, json.Unmarshal's %v\ninput: %q", err, werr, data)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("decoders disagree:\n got: %#v\nwant: %#v\ninput: %q", got, want, data)
	}
	return got
}

// Shape describes where a wire document has recognised keys: a struct's
// fields (matched case-insensitively, as encoding/json does), a map's
// values (keys compared exactly), or an array's elements.
type Shape struct {
	Fields []string // a struct's field names
	Shapes []*Shape // the shape of each field's value; nil or missing skips it
	MapOf  *Shape   // a map's value shape
	ElemOf *Shape   // an array's element shape
	IsMap  bool     // the value is a map, whose keys must not repeat
}

// RepeatsKey reports whether the document repeats a recognised key of sh
// — a field name within one JSON object (folded with strings.EqualFold,
// which encoding/json documents as its key folding) or a key within one
// map — before its first syntax error.
func RepeatsKey(data []byte, sh *Shape) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	repeated, _ := walk(dec, sh)
	return repeated
}

// walk consumes one value from dec, checking it against sh (nil skips
// it). It stops at the first repeated key or decoder error.
func walk(dec *json.Decoder, sh *Shape) (bool, error) {
	tok, err := dec.Token()
	if err != nil {
		return false, err
	}
	delim, ok := tok.(json.Delim)
	if !ok || delim == '}' || delim == ']' {
		return false, nil
	}
	if delim == '[' {
		var elem *Shape
		if sh != nil {
			elem = sh.ElemOf
		}
		for dec.More() {
			if repeated, err := walk(dec, elem); repeated || err != nil {
				return repeated, err
			}
		}
		_, err := dec.Token()
		return false, err
	}
	if sh != nil && sh.ElemOf != nil {
		sh = nil // an object where an array belongs
	}
	seen := make(map[string]bool)
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false, err
		}
		key := tok.(string)
		var next *Shape
		switch {
		case sh == nil:
		case sh.IsMap:
			if seen[key] {
				return true, nil
			}
			seen[key] = true
			next = sh.MapOf
		default:
			for i, f := range sh.Fields {
				if strings.EqualFold(key, f) {
					if seen[f] {
						return true, nil
					}
					seen[f] = true
					if i < len(sh.Shapes) {
						next = sh.Shapes[i]
					}
					break
				}
			}
		}
		if repeated, err := walk(dec, next); repeated || err != nil {
			return repeated, err
		}
	}
	_, err = dec.Token()
	return false, err
}
