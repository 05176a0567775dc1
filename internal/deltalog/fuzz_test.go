package deltalog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"genclus/internal/hin"
)

// fuzzLimits bounds hostile mutations the way the mutation endpoints do in
// production — without them a single fuzz input could allocate unbounded
// link or observation slices.
var fuzzLimits = hin.Limits{
	MaxObjects:      2000,
	MaxLinks:        10000,
	MaxAttributes:   32,
	MaxVocab:        4096,
	MaxObservations: 20000,
}

// FuzzDecodeMutation hammers the mutation wire format (the fourth trust
// boundary, behind POST /v1/networks/{id}/edges|objects and PATCH
// .../attributes): Decode and DecodeRecord must agree with their
// encoding/json oracles on every input (apart from the repeated-key
// rejection), and any byte slice must either fail with a typed error or
// produce a mutation that survives an Encode → DecodeRecord round trip
// and applies (or is rejected) against a live network without panicking.
func FuzzDecodeMutation(f *testing.F) {
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
	f.Add([]byte(`{"op":"edges","add":[{"from":"a","to":"a","rel":"self","w":1}]}`))
	// Duplicate edges (same triple twice) are legal adds; duplicate object
	// IDs are not. Hostile IDs probe the blob-name and JSON-escape seams.
	f.Add([]byte(`{"op":"edges","add":[{"from":"a","to":"b","rel":"r","w":1},{"from":"a","to":"b","rel":"r","w":1}]}`))
	f.Add([]byte(`{"op":"objects","objects":[{"id":"x","type":"t"},{"id":"x","type":"t"}]}`))
	f.Add([]byte(`{"op":"objects","objects":[{"id":"../../../etc/passwd","type":"t"},{"id":"ab","type":"‮"}]}`))
	f.Add([]byte("{\"op\":\"objects\",\"objects\":[{\"id\":\"a\\u0000b\",\"type\":\"t\"}]}"))
	f.Add([]byte(`{"op":"edges","add":[{"from":"a","to":"b","rel":"r","w":1e308}],"remove":[{"from":"a","to":"b","rel":"r"}]}`))
	f.Add([]byte(`{"op":"attributes","set":[{"id":"p1","terms":{"text":[{"t":0,"c":1}]},"numeric":{"score":[-0]}}]}`))
	for _, doc := range decodeCases {
		f.Add([]byte(doc))
	}
	for _, rc := range repeatedKeyCases {
		f.Add([]byte(rc.doc))
		f.Add([]byte(recordOf(rc.op, rc.doc)))
	}

	// A small live network gives Apply real indices, vocabularies and
	// relation tables to contradict.
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 8})
	b.DeclareAttribute(hin.AttrSpec{Name: "score", Kind: hin.Numeric})
	b.AddObject("p1", "paper")
	b.AddObject("p2", "paper")
	b.AddObject("a", "author")
	b.AddLink("a", "p1", "writes", 1)
	b.AddLink("p1", "p2", "cites", 1)
	base, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeMatchesReference(t, data, fuzzLimits)
		m, err := DecodeRecord(data, fuzzLimits)
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("mutation decoded from %q fails to encode: %v", data, err)
		}
		again, err := DecodeRecord(enc, fuzzLimits)
		if err != nil {
			t.Fatalf("round trip rejects own output: %v\ninput: %q\nencoded: %q", err, data, enc)
		}
		enc2, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode not stable across a round trip:\n first %q\nsecond %q", enc, enc2)
		}
		// Touched never panics and never returns empty IDs or duplicates.
		seen := map[string]bool{}
		for _, id := range m.Touched() {
			if id == "" || seen[id] {
				t.Fatalf("touched has empty or duplicate id in %v", m.Touched())
			}
			seen[id] = true
		}
		// Apply against the live network: a typed rejection or a valid next
		// view, never a panic, never mutation of the input.
		next, err := Apply(base, m)
		if err != nil {
			return
		}
		if next == base {
			t.Fatal("Apply returned the input network")
		}
		if next.NumObjects() < base.NumObjects() {
			t.Fatalf("apply shrank objects: %d → %d", base.NumObjects(), next.NumObjects())
		}
	})
}
