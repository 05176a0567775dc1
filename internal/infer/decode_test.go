package infer_test

import (
	"errors"
	"strings"
	"testing"

	"genclus/internal/datagen"
	"genclus/internal/infer"
	"genclus/internal/infer/infertest"
)

// TestDecodeRequestMatchesReference runs the one-pass decoder against
// infertest.ReferenceDecodeRequest (the encoding/json decoder it replaced)
// on the edge-case table, under each case's batch bound, the fuzz target's
// bound of 8 and no bound. A document that repeats a recognised key must
// be rejected with an error naming it.
func TestDecodeRequestMatchesReference(t *testing.T) {
	for _, tc := range infertest.Cases {
		t.Run(tc.Name, func(t *testing.T) {
			for _, maxBatch := range []int{tc.MaxBatch, 8, 0} {
				infertest.CheckMatchesReference(t, []byte(tc.Doc), maxBatch)
			}
			if infertest.RepeatsRecognisedKey([]byte(tc.Doc)) {
				_, _, err := infer.DecodeRequest([]byte(tc.Doc), tc.MaxBatch)
				if err == nil || !strings.Contains(err.Error(), "repeated") {
					t.Fatalf("repeated key: got %v, want an error naming it", err)
				}
			}
		})
	}
}

// TestDecodeRequestRejectsRepeatedKeys pins the one documented difference
// from encoding/json: the reference decoder merges repeated keys, the
// scanner rejects them with a *DecodeError naming the key — even past the
// batch bound, where the reference answers with a *LimitError.
func TestDecodeRequestRejectsRepeatedKeys(t *testing.T) {
	for _, tc := range infertest.Cases {
		if !strings.HasPrefix(tc.Name, "repeated") || tc.Name == "repeated unknown key" {
			continue
		}
		if !infertest.RepeatsRecognisedKey([]byte(tc.Doc)) {
			t.Errorf("%s: test scanner finds no repeated key", tc.Name)
		}
		_, _, err := infer.DecodeRequest([]byte(tc.Doc), tc.MaxBatch)
		var de *infer.DecodeError
		if !errors.As(err, &de) || !strings.Contains(err.Error(), "repeated") {
			t.Errorf("%s: got %v, want a *DecodeError naming the repeated key", tc.Name, err)
		}
	}
	doc := []byte(`{"z":1,"z":[2],"objects":[{"id":"a","q":1,"q":2}]}`)
	if _, _, err := infer.DecodeRequest(doc, 0); err != nil {
		t.Errorf("repeated unknown key rejected: %v", err)
	}
}

// TestDecodeRequestNestingDepth holds the scanner to encoding/json's
// nesting bound of 10000, counted from the document object, inside
// skipped keys at each level of the request.
func TestDecodeRequestNestingDepth(t *testing.T) {
	for _, depth := range []int{9999, 10000} {
		nest := strings.Repeat("[", depth) + strings.Repeat("]", depth)
		doc := `{"x":` + nest + `,"objects":[{"id":"a"}]}`
		_, _, err := infer.DecodeRequest([]byte(doc), 0)
		if (err == nil) != (depth < 10000) {
			t.Errorf("%d nested arrays under the request: err=%v", depth, err)
		}
		infertest.CheckMatchesReference(t, []byte(doc), 0)
	}
	for _, doc := range []string{
		`{"objects":[{"x":%s}]}`,
		`{"objects":[{"links":[{"x":%s}]}]}`,
		`{"objects":[{"terms":{"a":[{"x":%s}]}}]}`,
	} {
		for _, depth := range []int{9994, 9995, 9996, 9997} {
			nest := strings.Repeat("[", depth) + strings.Repeat("]", depth)
			infertest.CheckMatchesReference(t, []byte(strings.Replace(doc, "%s", nest, 1)), 0)
		}
	}
}

// TestDecodeRequestGeneratedMatchesReference checks the decoder against
// the reference on the request bodies genclus's serve workloads send:
// clones of A–C–P papers, with their links and term counts, and of
// weather sensors, with their numeric observations.
func TestDecodeRequestGeneratedMatchesReference(t *testing.T) {
	acp := datagen.DefaultBiblioConfig(datagen.SchemaACP, 3)
	acp.NumAuthors, acp.NumPapers = 120, 180
	gens := map[string]func() (*datagen.Dataset, error){
		"acp":     func() (*datagen.Dataset, error) { return datagen.Biblio(acp) },
		"weather": func() (*datagen.Dataset, error) { return datagen.Weather(datagen.WeatherSetting1(60, 60, 5, 3)) },
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			ds, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			bodies, err := infertest.RequestBodies(ds.Net, 8, 8)
			if err != nil {
				t.Fatal(err)
			}
			for _, body := range bodies {
				for _, maxBatch := range []int{0, 8, 7} {
					infertest.CheckMatchesReference(t, body, maxBatch)
				}
			}
		})
	}
}
