package hin

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genclus/internal/jsonscan/scantest"
)

// decodeEdgeCase is one document of the decoder contract, with the limits
// it is decoded under.
type decodeEdgeCase struct {
	name string
	doc  string
	lim  Limits
}

// decodeEdgeCases covers each rule of the decoder contract. Every case is
// checked against referenceDecode by TestDecodeMatchesReference and seeds
// FuzzDecodeNetwork's corpus.
var decodeEdgeCases = []decodeEdgeCase{
	// Errors: parse errors beat limit errors, limits are checked in order,
	// Builder errors come last.
	{"parse error over a limit", `{"objects":[{"id":"a","type":"t"},{"id":"b","type":"t"}],"links":5}`, Limits{MaxObjects: 1}},
	{"syntax error after a limit", `{"objects":[{"id":"a","type":"t"},{"id":"b","type":"t"}],"links":[}`, Limits{MaxObjects: 1}},
	{"objects before links", `{"links":[{"from":"a","to":"b","rel":"r","w":1},{"from":"b","to":"a","rel":"r","w":1}],"objects":[{"id":"a","type":"t"},{"id":"b","type":"t"}]}`, Limits{MaxObjects: 1, MaxLinks: 1}},
	{"attributes before vocabulary", `{"objects":[{"id":"a","type":"t"}],"attributes":[{"name":"x","kind":"categorical","vocab":100},{"name":"y","kind":"numeric"}]}`, Limits{MaxAttributes: 1, MaxVocab: 10}},
	{"vocabulary before observations", `{"objects":[{"id":"a","type":"t","terms":{"x":[{"t":0,"c":1},{"t":1,"c":1}]}}],"attributes":[{"name":"x","kind":"categorical","vocab":5},{"name":"y","kind":"categorical","vocab":100}]}`, Limits{MaxVocab: 10, MaxObservations: 1}},
	{"observations count per object", `{"objects":[{"id":"a","type":"t","numeric":{"n":[1]}},{"id":"b","type":"t","numeric":{"n":[1,2]},"terms":{"x":[]}},{"id":"c","type":"t","numeric":{"n":[1,2,3]}}],"attributes":[{"name":"n","kind":"numeric"}]}`, Limits{MaxObservations: 2}},
	{"limit before builder error", `{"objects":[{"id":"a","type":"t"},{"id":"b","type":"t"}],"attributes":[{"name":"x","kind":"ordinal"}]}`, Limits{MaxObjects: 1}},
	{"builder error", `{"objects":[{"id":"a","type":"t"}],"links":[{"from":"a","to":"zz","rel":"r","w":1}]}`, Limits{}},
	{"object retyped", `{"objects":[{"id":"a","type":"t"},{"id":"a","type":"u"}]}`, Limits{}},
	{"duplicate object merges observations", `{"objects":[{"id":"a","type":"t","numeric":{"n":[1]}},{"id":"a","type":"t","numeric":{"n":[2]}}],"attributes":[{"name":"n","kind":"numeric"}]}`, Limits{}},
	{"two attributes on one object", `{"objects":[{"id":"a","type":"t","terms":{"y":[{"t":0,"c":1}],"x":[{"t":9,"c":1}]}}],"attributes":[{"name":"x","kind":"categorical","vocab":2},{"name":"y","kind":"numeric"}]}`, Limits{}},

	// Keys: exact, then encoding/json's case fold; unknown keys skipped
	// but validated.
	{"folded keys", `{"OBJECTS":[{"Id":"a","TYPE":"t","Terms":{"x":[{"T":1,"C":2}]}}],"Attributes":[{"NAME":"x","Kind":"categorical","VOCAB":2}],"LINKS":[{"FROM":"a","To":"a","REL":"r","W":1}]}`, Limits{}},
	{"unicode folded keys", `{"objectſ":[{"id":"a","type":"t"}],"linKs":[{"from":"a","to":"a","rel":"r","w":1}],"attributeſ":[]}`, Limits{}},
	{"unknown keys skipped", `{"extra":{"a":[1,-2.5e3,{"b":null,"c":true,"d":"é"}],"e":false},"objects":[{"id":"a","type":"t","x":[false],"terms":{}}],"links":[{"from":"a","to":"a","rel":"r","w":1,"note":{}}]}`, Limits{}},
	{"unknown key malformed", `{"extra":[1,2,],"objects":[{"id":"a","type":"t"}]}`, Limits{}},
	{"unknown key bad literal", `{"extra":nul,"objects":[{"id":"a","type":"t"}]}`, Limits{}},

	// null: a zero scalar, an absent array or map.
	{"null object element", `{"objects":[null]}`, Limits{}},
	{"null arrays", `{"objects":null,"links":null,"attributes":null}`, Limits{}},
	{"null document", `null`, Limits{}},
	{"null observations", `{"objects":[{"id":"a","type":"t","terms":null,"numeric":{"n":[null,1],"m":null}}],"attributes":[{"name":"n","kind":"numeric","vocab":null}]}`, Limits{}},
	{"null term count", `{"objects":[{"id":"a","type":"t","terms":{"x":[null]}}],"attributes":[{"name":"x","kind":"categorical","vocab":1}]}`, Limits{}},
	{"null id", `{"objects":[{"id":null,"type":"t"}]}`, Limits{}},
	{"null link", `{"objects":[{"id":"a","type":"t"}],"links":[null]}`, Limits{}},
	{"null link fields", `{"objects":[{"id":"a","type":"t"}],"links":[{"from":"a","to":"a","rel":null,"w":null}]}`, Limits{}},

	// Numbers: strict grammar; t and vocab are ints; floats parse as
	// strconv.ParseFloat(…, 64).
	{"fractional term", `{"objects":[{"id":"a","type":"t","terms":{"x":[{"t":1.0,"c":1}]}}],"attributes":[{"name":"x","kind":"categorical","vocab":2}]}`, Limits{}},
	{"exponent term", `{"objects":[{"id":"a","type":"t","terms":{"x":[{"t":1e0,"c":1}]}}],"attributes":[{"name":"x","kind":"categorical","vocab":2}]}`, Limits{}},
	{"overflowing vocabulary", `{"objects":[{"id":"a","type":"t"}],"attributes":[{"name":"x","kind":"categorical","vocab":99999999999999999999}]}`, Limits{}},
	{"large vocabulary", `{"objects":[{"id":"a","type":"t"}],"attributes":[{"name":"x","kind":"numeric","vocab":-1234567890123456789}]}`, Limits{}},
	{"negative zero term", `{"objects":[{"id":"a","type":"t","terms":{"x":[{"t":-0,"c":1}]}}],"attributes":[{"name":"x","kind":"categorical","vocab":2}]}`, Limits{}},
	{"string term", `{"objects":[{"id":"a","type":"t","terms":{"x":[{"t":"1","c":1}]}}],"attributes":[{"name":"x","kind":"categorical","vocab":2}]}`, Limits{}},
	{"overflowing count", `{"objects":[{"id":"a","type":"t","terms":{"x":[{"t":0,"c":1e400}]}}],"attributes":[{"name":"x","kind":"categorical","vocab":2}]}`, Limits{}},
	{"underflowing count", `{"objects":[{"id":"a","type":"t","terms":{"x":[{"t":0,"c":1e-400}]}}],"attributes":[{"name":"x","kind":"categorical","vocab":2}]}`, Limits{}},
	{"float forms", `{"objects":[{"id":"a","type":"t","numeric":{"n":[1.5e300,-0,123456789012345678,0.1,-2.5E-3,4.9e-324,1E+2,999999999999999,1000000000000000]}}],"attributes":[{"name":"n","kind":"numeric"}],"links":[{"from":"a","to":"a","rel":"r","w":0.30000000000000004}]}`, Limits{}},
	{"negative zero weight", `{"objects":[{"id":"a","type":"t"}],"links":[{"from":"a","to":"a","rel":"r","w":-0}]}`, Limits{}},
	{"leading zero", `{"objects":[{"id":"a","type":"t"}],"links":[{"from":"a","to":"a","rel":"r","w":01}]}`, Limits{}},
	{"bare minus", `{"objects":[{"id":"a","type":"t"}],"links":[{"from":"a","to":"a","rel":"r","w":-}]}`, Limits{}},
	{"trailing point", `{"objects":[{"id":"a","type":"t"}],"links":[{"from":"a","to":"a","rel":"r","w":1.}]}`, Limits{}},
	{"leading point", `{"objects":[{"id":"a","type":"t"}],"links":[{"from":"a","to":"a","rel":"r","w":.5}]}`, Limits{}},
	{"empty exponent", `{"objects":[{"id":"a","type":"t"}],"links":[{"from":"a","to":"a","rel":"r","w":1e+}]}`, Limits{}},
	{"boolean weight", `{"objects":[{"id":"a","type":"t"}],"links":[{"from":"a","to":"a","rel":"r","w":true}]}`, Limits{}},

	// Strings: encoding/json's unquoting, invalid UTF-8 as U+FFFD.
	{"escaped ids", `{"objects":[{"id":"é😀\"\\\/\b\f\n\r\t","type":"t"},{"id":"a","type":"t"}],"links":[{"from":"a","to":"é😀\"\\/\b\f\n\r\t","rel":"r","w":1}]}`, Limits{}},
	{"lone surrogates", `{"objects":[{"id":"\ud800","type":"t"},{"id":"\ud800A","type":"t"},{"id":"\udc00x","type":"t"},{"id":"\ud83d\ud83d","type":"t"}]}`, Limits{}},
	{"invalid utf-8", "{\"objects\":[{\"id\":\"a\xffb\",\"type\":\"t\xc3\"}],\"links\":[{\"from\":\"a\xfeb\",\"to\":\"a\\ufffdb\",\"rel\":\"\xed\xa0\x80\",\"w\":1}]}", Limits{}},
	{"escaped relations", `{"objects":[{"id":"a","type":"T"},{"id":"b","type":"T"}],"links":[{"from":"a","to":"b","rel":"\u003cT,T\u003e","w":1},{"from":"b","to":"a","rel":"<T,T>","w":2},{"from":"b","to":"b","rel":"\u003cT,T>","w":3},{"from":"a","to":"a","rel":"\u003cT,T\u003e","w":4}]}`, Limits{}},
	{"control character", "{\"objects\":[{\"id\":\"a\x01\",\"type\":\"t\"}]}", Limits{}},
	{"bad escape", `{"objects":[{"id":"\x41","type":"t"}]}`, Limits{}},
	{"short unicode escape", `{"objects":[{"id":"\u12","type":"t"}]}`, Limits{}},
	{"unterminated string", `{"objects":[{"id":"a`, Limits{}},

	// Links resolve after every object is known; relations are interned
	// in order of first appearance.
	{"links before objects", `{"links":[{"from":"b","to":"a","rel":"s","w":1},{"from":"a","to":"b","rel":"r","w":2},{"from":"a","to":"a","rel":"s","w":3}],"objects":[{"id":"a","type":"t"},{"id":"b","type":"t"}]}`, Limits{}},
	{"invalid link weight", `{"objects":[{"id":"a","type":"t"}],"links":[{"from":"a","to":"a","rel":"r","w":0}]}`, Limits{}},

	// Trailing data is rejected; trailing whitespace is not.
	{"trailing data", `{"objects":[{"id":"a","type":"t"}]} x`, Limits{}},
	{"two documents", `{"objects":[{"id":"a","type":"t"}]}{}`, Limits{}},
	{"trailing whitespace", " \t{\"objects\":[{\"id\":\"a\",\"type\":\"t\"}]}\r\n ", Limits{}},
	{"empty input", ``, Limits{}},
	{"array document", `[]`, Limits{}},

	// A repeated recognised key is rejected; a repeated unknown key is not.
	{"repeated objects", `{"objects":[{"id":"a","type":"t"}],"objects":[{"id":"b","type":"t"}]}`, Limits{}},
	{"repeated folded id", `{"objects":[{"id":"a","ID":"b","type":"t"}]}`, Limits{}},
	{"repeated term attribute", `{"objects":[{"id":"a","type":"t","terms":{"x":[{"t":0,"c":1}],"x":[{"t":1,"c":1}]}}],"attributes":[{"name":"x","kind":"categorical","vocab":2}]}`, Limits{}},
	{"repeated escaped numeric attribute", `{"objects":[{"id":"a","type":"t","numeric":{"x":[1],"\u0078":null}}],"attributes":[{"name":"x","kind":"numeric"}]}`, Limits{}},
	{"repeated term field", `{"objects":[{"id":"a","type":"t","terms":{"x":[{"t":0,"c":1,"T":1}]}}],"attributes":[{"name":"x","kind":"categorical","vocab":2}]}`, Limits{}},
	{"repeated link field", `{"objects":[{"id":"a","type":"t"}],"links":[{"from":"a","to":"a","rel":"r","w":1,"w":2}]}`, Limits{}},
	{"repeated attribute field", `{"objects":[{"id":"a","type":"t"}],"attributes":[{"name":"x","Name":"y","kind":"numeric"}]}`, Limits{}},
	{"repeated key over a limit", `{"objects":[{"id":"a","type":"t"},{"id":"b","type":"t"}],"objects":[]}`, Limits{MaxObjects: 1}},
	{"repeated unknown key", `{"z":1,"z":[2],"objects":[{"id":"a","type":"t","q":1,"q":2}]}`, Limits{}},
}

// TestDecodeMatchesReference runs the one-pass decoder against
// referenceDecode on the testdata fixtures and the edge-case table, under
// each case's limits, the fuzz limits and no limits.
func TestDecodeMatchesReference(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range fixtures {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(filepath.Base(path), func(t *testing.T) {
			for _, lim := range []Limits{{}, fuzzLimits, {MaxObjects: 1}, {MaxObservations: 1}} {
				checkDecodeMatchesReference(t, data, lim)
			}
		})
	}
	for _, tc := range decodeEdgeCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, lim := range []Limits{tc.lim, fuzzLimits, {}} {
				checkDecodeMatchesReference(t, []byte(tc.doc), lim)
			}
			if scantest.RepeatsKey([]byte(tc.doc), docShape) {
				_, err := FromJSONLimited([]byte(tc.doc), Limits{})
				if err == nil || !strings.Contains(err.Error(), "repeated") {
					t.Fatalf("repeated key: got %v, want an error naming it", err)
				}
			}
		})
	}
}

// TestDecodeRejectsRepeatedKeys pins the one documented difference from
// encoding/json: the reference decoder merges repeated keys, the scanner
// rejects them with a parse error naming the key.
func TestDecodeRejectsRepeatedKeys(t *testing.T) {
	for _, tc := range decodeEdgeCases {
		if !strings.HasPrefix(tc.name, "repeated") || tc.name == "repeated unknown key" {
			continue
		}
		if !scantest.RepeatsKey([]byte(tc.doc), docShape) {
			t.Errorf("%s: test scanner finds no repeated key", tc.name)
		}
		_, err := FromJSONLimited([]byte(tc.doc), tc.lim)
		var lim *LimitError
		if err == nil || errors.As(err, &lim) || !strings.Contains(err.Error(), "repeated") {
			t.Errorf("%s: got %v, want a parse error naming the repeated key", tc.name, err)
		}
	}
	if _, err := FromJSONLimited([]byte(`{"z":1,"z":[2],"objects":[{"id":"a","type":"t","q":1,"q":2}]}`), Limits{}); err != nil {
		t.Errorf("repeated unknown key rejected: %v", err)
	}
}

// TestDecodeNestingDepth holds the scanner to encoding/json's nesting
// bound of 10000, counted from the document object, inside skipped keys.
func TestDecodeNestingDepth(t *testing.T) {
	for _, depth := range []int{9999, 10000} {
		doc := `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"objects":[{"id":"a","type":"t"}]}`
		_, err := FromJSONLimited([]byte(doc), Limits{})
		if (err == nil) != (depth < 10000) {
			t.Errorf("%d nested arrays under the document: err=%v", depth, err)
		}
		checkDecodeMatchesReference(t, []byte(doc), Limits{})
	}
}

// TestDecodeStopsStoringPastALimit checks that a document over a limit
// stages nothing past it, however large the rest of the document is.
func TestDecodeStopsStoringPastALimit(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"objects":[`)
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"id":"o`)
		sb.WriteString(strings.Repeat("x", i%7))
		sb.WriteString(`","type":"t","numeric":{"n":[1,2,3]}}`)
	}
	sb.WriteString(`]}`)
	d := newDecoder([]byte(sb.String()), Limits{MaxObjects: 10})
	if err := d.document(); err != nil {
		t.Fatal(err)
	}
	staged := 0
	for _, block := range d.nums.blocks() {
		staged += len(block)
	}
	if len(d.objects) > 10 || staged > 30 {
		t.Fatalf("staged %d objects and %d observations past a limit of 10 objects", len(d.objects), staged)
	}
	var lim *LimitError
	if err := d.limitError(); !errors.As(err, &lim) || lim.Got != 1000 {
		t.Fatalf("limit error %v, want 1000 objects", err)
	}
}

// TestBuilderTermCountsBitwise feeds random AddTermCount sequences —
// repeated terms, counts such as 0.1, 0.2 and 1e-300, several attributes —
// and requires every frozen count to equal, bit for bit, a map
// accumulation of the same calls; a CloneInto round trip must reproduce
// every list.
func TestBuilderTermCountsBitwise(t *testing.T) {
	counts := []float64{0.1, 0.2, 0.3, 1e-300, 1, 3, 1e300, 7.25, math.SmallestNonzeroFloat64}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		b := NewBuilder()
		const nObj, nAttr, vocab = 12, 3, 9
		for a := 0; a < nAttr; a++ {
			b.DeclareAttribute(AttrSpec{Name: string(rune('x' + a)), Kind: Categorical, VocabSize: vocab})
		}
		for v := 0; v < nObj; v++ {
			b.AddObject(string(rune('A'+v)), "t")
		}
		want := make([]map[int]map[int]float64, nAttr) // attr → obj → term → count
		for a := range want {
			want[a] = make(map[int]map[int]float64)
		}
		for call := rng.Intn(400); call > 0; call-- {
			v, a, term := rng.Intn(nObj), rng.Intn(nAttr), rng.Intn(vocab)
			c := counts[rng.Intn(len(counts))]
			b.AddTermCountByIndex(v, string(rune('x'+a)), term, c)
			if want[a][v] == nil {
				want[a][v] = make(map[int]float64)
			}
			want[a][v][term] += c
		}
		net, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < nAttr; a++ {
			for v := 0; v < nObj; v++ {
				tcs := net.TermCounts(a, v)
				if len(tcs) != len(want[a][v]) {
					t.Fatalf("trial %d attr %d object %d: %d terms, want %d", trial, a, v, len(tcs), len(want[a][v]))
				}
				for i, tc := range tcs {
					if i > 0 && tcs[i-1].Term >= tc.Term {
						t.Fatalf("trial %d: terms not strictly increasing: %v", trial, tcs)
					}
					if w := want[a][v][tc.Term]; math.Float64bits(tc.Count) != math.Float64bits(w) {
						t.Fatalf("trial %d attr %d object %d term %d: count %v, map accumulation %v", trial, a, v, tc.Term, tc.Count, w)
					}
				}
			}
		}
		cb := NewBuilder()
		CloneInto(cb, net, nil, nil)
		clone, err := cb.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkSameNetwork(t, clone, net)
		// The Builder may be reused after Build: a second Build of the
		// same calls freezes the same lists.
		again, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkSameNetwork(t, again, net)
	}
}
