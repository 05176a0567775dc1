package server

import (
	"encoding/json"
	"sync"
	"testing"

	"genclus/internal/core"
	"genclus/internal/hin"
	"genclus/internal/infer"
	"genclus/internal/infer/infertest"
)

// fuzzAssignModel fits one tiny model for the fuzz target to validate
// against, so the fuzzer exercises the full decode → resolve → validate
// pipeline rather than just the JSON layer.
func fuzzAssignModel(f *testing.F) *core.Model {
	f.Helper()
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 8})
	b.DeclareAttribute(hin.AttrSpec{Name: "score", Kind: hin.Numeric})
	for i := 0; i < 8; i++ {
		id := string(rune('a' + i))
		b.AddObject(id, "doc")
		b.AddTermCount(id, "text", i%8, 1)
		b.AddNumeric(id, "score", float64(i))
	}
	for i := 0; i < 8; i++ {
		b.AddLink(string(rune('a'+i)), string(rune('a'+(i+1)%8)), "cites", 1)
	}
	net, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	opts := core.DefaultOptions(2)
	opts.OuterIters = 1
	opts.EMIters = 2
	opts.InitSeeds = 1
	m, err := core.Fit(net, opts)
	if err != nil {
		f.Fatal(err)
	}
	return m
}

// FuzzDecodeAssignRequest fuzzes the assign trust boundary: arbitrary
// bytes through infer.DecodeRequest, then — when the document parses —
// through engine validation and scoring. The decoder must agree with
// infertest.ReferenceDecodeRequest, the encoding/json decoder it replaced:
// the same error type, or the same queries bit for bit (a document that
// repeats a recognised key must be rejected instead). Past the decoder the
// invariant is "typed error or correct result, never a panic or runaway
// allocation": the CI fuzz smoke runs this alongside the network and
// snapshot decoder fuzzers.
func FuzzDecodeAssignRequest(f *testing.F) {
	m := fuzzAssignModel(f)
	eng, err := infer.NewEngine(m, infer.Options{
		TopK:   2,
		Limits: infer.Limits{MaxBatch: 16, MaxLinks: 16, MaxTerms: 16, MaxValues: 16},
	})
	if err != nil {
		f.Fatal(err)
	}
	// The engine's scratch arena is single-threaded; fuzz workers in one
	// process share it behind a mutex.
	var mu sync.Mutex

	valid, _ := json.Marshal(infer.RequestDoc{
		TopK: 2,
		Objects: []infer.ObjectDoc{{
			ID:      "q",
			Links:   []infer.LinkDoc{{Relation: "cites", To: "a", Weight: 1}},
			Terms:   map[string][]infer.TermDoc{"text": {{Term: 1, Count: 2}}},
			Numeric: map[string][]float64{"score": {0.5}},
		}},
	})
	seeds := [][]byte{
		valid,
		[]byte(`{}`),
		[]byte(`{"objects":[]}`),
		[]byte(`{"objects":[{}]}`),
		[]byte(`{"objects":[{"links":[{"rel":"ghost","to":"a","w":1}]}]}`),
		[]byte(`{"objects":[{"links":[{"rel":"cites","to":"a","w":-1}]}]}`),
		[]byte(`{"objects":[{"terms":{"text":[{"t":99,"c":1}]}}]}`),
		[]byte(`{"objects":[{"terms":{"score":[{"t":0,"c":1}]}}]}`),
		[]byte(`{"objects":[{"numeric":{"score":[1e309]}}]}`),
		[]byte(`{"objects":[{"id":"x"},{"id":"y"},{"id":"z"}],"top_k":-3}`),
		[]byte(`[1,2,3]`),
		[]byte(`{"objects":`),
		[]byte("\x00\xff garbage"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, tc := range infertest.Cases {
		f.Add([]byte(tc.Doc))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		_, queries, err := infertest.CheckMatchesReference(t, data, 8)
		if err != nil {
			// Every rejection must be one of the typed 4xx shapes
			// writeAssignError knows how to map.
			switch err.(type) {
			case *infer.DecodeError, *infer.LimitError:
			default:
				t.Fatalf("decode returned untyped error %T: %v", err, err)
			}
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if err := eng.Validate(queries); err != nil {
			switch err.(type) {
			case *infer.QueryError, *infer.LimitError:
			default:
				t.Fatalf("validate returned untyped error %T: %v", err, err)
			}
			return
		}
		out, err := eng.AssignBatch(queries)
		if err != nil {
			t.Fatalf("validated batch failed to score: %v", err)
		}
		for _, a := range out {
			var sum float64
			for _, x := range a.Theta {
				if x < 0 {
					t.Fatalf("negative posterior %v", a.Theta)
				}
				sum += x
			}
			if sum < 0.999 || sum > 1.001 {
				t.Fatalf("posterior does not sum to 1: %v", a.Theta)
			}
		}
	})
}
