package hin

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// fuzzLimits keeps hostile inputs from exploding memory during fuzzing; the
// same mechanism shields the genclusd upload endpoint in production.
var fuzzLimits = Limits{
	MaxObjects:      2000,
	MaxLinks:        10000,
	MaxAttributes:   32,
	MaxVocab:        4096,
	MaxObservations: 20000,
}

// FuzzDecodeNetwork hammers the untrusted-input decoder. For any byte
// slice, FromJSONLimited must agree with referenceDecode (the
// encoding/json decoder it replaced): both succeed with identical
// networks, both fail with equal *LimitErrors, both fail otherwise, or the
// document repeats a recognised key and FromJSONLimited rejects it. A
// decoded network must also survive a marshal → decode round trip
// unchanged in shape, with sound link storage. Panics, disagreement and
// round-trip drift are the bugs being hunted.
func FuzzDecodeNetwork(f *testing.F) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(fixtures) == 0 {
		f.Fatal("no testdata fixtures to seed the corpus")
	}
	for _, path := range fixtures {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"objects":[{"id":"a","type":"t"}]}`))
	f.Add([]byte(`{"attributes":[{"name":"n","kind":"numeric"}],"objects":[{"id":"a","type":"t","numeric":{"n":[1e308,-1e308]}}]}`))
	// Self-links and duplicate (src, dst, relation) links: the edge sort
	// must keep duplicates as separate adjacent entries (never coalesce).
	f.Add([]byte(`{"objects":[{"id":"a","type":"t"},{"id":"b","type":"t"}],` +
		`"links":[{"from":"a","to":"a","rel":"self","w":1},` +
		`{"from":"a","to":"b","rel":"r","w":1},{"from":"a","to":"b","rel":"r","w":2},` +
		`{"from":"b","to":"a","rel":"r","w":0.5}]}`))
	for _, tc := range decodeEdgeCases {
		f.Add([]byte(tc.doc))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		net := checkDecodeMatchesReference(t, data, fuzzLimits)
		if net == nil {
			return // rejected input is fine; panicking is not
		}
		enc, err := net.MarshalJSON()
		if err != nil {
			t.Fatalf("network decoded from %q fails to marshal: %v", data, err)
		}
		again, err := FromJSONLimited(enc, fuzzLimits)
		if err != nil {
			t.Fatalf("round trip rejects own output: %v\ninput: %q\nencoded: %q", err, data, enc)
		}
		if again.NumObjects() != net.NumObjects() ||
			again.NumEdges() != net.NumEdges() ||
			again.NumRelations() != net.NumRelations() ||
			again.NumAttrs() != net.NumAttrs() {
			t.Fatalf("round trip changed shape: objects %d→%d edges %d→%d relations %d→%d attrs %d→%d",
				net.NumObjects(), again.NumObjects(), net.NumEdges(), again.NumEdges(),
				net.NumRelations(), again.NumRelations(), net.NumAttrs(), again.NumAttrs())
		}
		// Any decodable network must also yield structurally sound link
		// storage — the out-link runs and in-link view every fit walks.
		checkCSRInvariants(t, net)
	})
}

// TestFromJSONLimited pins the limit checks outside the fuzzer so plain
// `go test` exercises them too.
func TestFromJSONLimited(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "small.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromJSONLimited(data, Limits{}); err != nil {
		t.Fatalf("no limits: %v", err)
	}
	mixed, err := os.ReadFile(filepath.Join("testdata", "mixed.json"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		lim  Limits
	}{
		{"objects", data, Limits{MaxObjects: 1}},
		{"links", data, Limits{MaxLinks: 1}},
		{"attributes", mixed, Limits{MaxAttributes: 1}}, // mixed.json declares 2
		{"observations", data, Limits{MaxObservations: 1}},
	}
	for _, tc := range cases {
		_, err := FromJSONLimited(tc.data, tc.lim)
		var lim *LimitError
		if !errors.As(err, &lim) {
			t.Errorf("%s limit not enforced (err=%v)", tc.name, err)
		} else if lim.Dimension != tc.name {
			t.Errorf("%s limit reported dimension %q", tc.name, lim.Dimension)
		}
	}
	if _, err := FromJSONLimited([]byte(`{"attributes":[{"name":"t","kind":"categorical","vocab":1000000000}],"objects":[{"id":"a","type":"t"}]}`),
		Limits{MaxVocab: 4096}); err == nil {
		t.Error("gigantic vocabulary accepted")
	}
}
