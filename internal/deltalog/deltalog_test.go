package deltalog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"genclus/internal/hin"
	"genclus/internal/store"
)

// testNetwork builds the shared fixture: three typed objects, two
// relations, one categorical and one numeric attribute.
func testNetwork(t *testing.T) *hin.Network {
	t.Helper()
	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 8})
	b.DeclareAttribute(hin.AttrSpec{Name: "score", Kind: hin.Numeric})
	b.AddObject("p1", "paper")
	b.AddObject("p2", "paper")
	b.AddObject("a1", "author")
	b.AddLink("a1", "p1", "writes", 1)
	b.AddLink("p1", "p2", "cites", 2)
	b.AddTermCount("p1", "text", 0, 3)
	b.AddNumeric("p2", "score", 1.5)
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func noLimits() hin.Limits { return hin.Limits{} }

// repeatedKeyCases each repeat one recognised key, which the decoder
// rejects with a *FormatError naming it, where encoding/json keeps the
// last value or merges the two maps.
var repeatedKeyCases = []struct {
	name, key string
	op        Op
	doc       string
}{
	{"repeated top-level key", `"add"`, OpEdges, `{"add":[{"from":"a","to":"b","rel":"r","w":1}],"add":[{"from":"c","to":"d","rel":"r","w":1}]}`},
	{"repeated folded top-level key", `"ADD"`, OpEdges, `{"add":[{"from":"a","to":"b","rel":"r","w":1}],"ADD":[{"from":"c","to":"d","rel":"r","w":1}]}`},
	{"repeated link field", `"from"`, OpEdges, `{"add":[{"from":"a","to":"b","rel":"r","w":1,"from":"c"}]}`},
	{"repeated edge ref field", `"REL"`, OpEdges, `{"remove":[{"from":"a","to":"b","rel":"r","REL":"s"}]}`},
	{"repeated object field", `"id"`, OpObjects, `{"objects":[{"id":"x","type":"t","id":"y"}]}`},
	{"repeated patch field", `"terms"`, OpAttributes, `{"set":[{"id":"x","terms":{"a":[{"t":0,"c":1}]},"terms":{"b":[{"t":0,"c":1}]}}]}`},
	{"repeated terms attribute", `"text" in terms`, OpObjects, `{"objects":[{"id":"x","type":"t","terms":{"text":[{"t":0,"c":1}],"text":[{"t":1,"c":1}]}}]}`},
	{"repeated numeric attribute", `"score" in numeric`, OpAttributes, `{"set":[{"id":"x","numeric":{"score":[1],"\u0073core":[2]}}]}`},
}

// recordOf returns doc as a delta-log record of op: the same body with
// the op discriminator DecodeRecord reads.
func recordOf(op Op, doc string) string {
	if strings.Contains(doc, `"op"`) {
		return doc
	}
	rec := strings.Replace(doc, "{", `{"op":"`+string(op)+`",`, 1)
	return strings.Replace(rec, ",}", "}", 1)
}

// TestDecodeRejects pins the trust boundary: each malformed document is a
// *FormatError, each oversized one a *hin.LimitError, and valid documents
// pass. Every row is decoded as a body by Decode and as a record by
// DecodeRecord.
func TestDecodeRejects(t *testing.T) {
	lim := hin.Limits{MaxObjects: 2, MaxLinks: 2, MaxVocab: 8, MaxObservations: 3}
	type row struct {
		name  string
		op    Op
		doc   string
		limit bool   // expect *hin.LimitError instead of *FormatError
		msg   string // text the error must contain
		body  bool   // a rule of the endpoint's op, which a record does not have
	}
	cases := []row{
		{name: "bad json", op: OpEdges, doc: `{`},
		{name: "op mismatch", op: OpEdges, doc: `{"op":"objects","objects":[{"id":"x","type":"t"}]}`, body: true},
		{name: "empty edges", op: OpEdges, doc: `{}`},
		{name: "edges with objects payload", op: OpEdges, doc: `{"add":[{"from":"a","to":"b","rel":"r","w":1}],"objects":[{"id":"x","type":"t"}]}`},
		{name: "link empty endpoint", op: OpEdges, doc: `{"add":[{"from":"","to":"b","rel":"r","w":1}]}`},
		{name: "link zero weight", op: OpEdges, doc: `{"add":[{"from":"a","to":"b","rel":"r","w":0}]}`},
		{name: "link nan weight", op: OpEdges, doc: `{"add":[{"from":"a","to":"b","rel":"r","w":"x"}]}`},
		{name: "remove empty rel", op: OpEdges, doc: `{"remove":[{"from":"a","to":"b","rel":""}]}`},
		{name: "too many links", op: OpEdges, limit: true,
			doc: `{"add":[{"from":"a","to":"b","rel":"r","w":1},{"from":"b","to":"c","rel":"r","w":1},{"from":"c","to":"d","rel":"r","w":1}]}`},
		{name: "empty objects", op: OpObjects, doc: `{}`},
		{name: "object no type", op: OpObjects, doc: `{"objects":[{"id":"x"}]}`},
		{name: "duplicate object ids", op: OpObjects, doc: `{"objects":[{"id":"x","type":"t"},{"id":"x","type":"t"}]}`},
		{name: "too many objects", op: OpObjects, limit: true,
			doc: `{"objects":[{"id":"x","type":"t"},{"id":"y","type":"t"},{"id":"z","type":"t"}]}`},
		{name: "negative term", op: OpObjects, doc: `{"objects":[{"id":"x","type":"t","terms":{"text":[{"t":-1,"c":1}]}}]}`},
		{name: "term past vocab cap", op: OpObjects, limit: true,
			doc: `{"objects":[{"id":"x","type":"t","terms":{"text":[{"t":9,"c":1}]}}]}`},
		{name: "zero count", op: OpObjects, doc: `{"objects":[{"id":"x","type":"t","terms":{"text":[{"t":0,"c":0}]}}]}`},
		{name: "attr both kinds", op: OpObjects, doc: `{"objects":[{"id":"x","type":"t","terms":{"a":[{"t":0,"c":1}]},"numeric":{"a":[1]}}]}`},
		{name: "too many observations", op: OpObjects, limit: true,
			doc: `{"objects":[{"id":"x","type":"t","numeric":{"score":[1,2,3,4]}}]}`},
		{name: "empty attributes", op: OpAttributes, doc: `{}`},
		{name: "patch names nothing", op: OpAttributes, doc: `{"set":[{"id":"x"}]}`},
		{name: "duplicate patch ids", op: OpAttributes, doc: `{"set":[{"id":"x","numeric":{"score":[1]}},{"id":"x","numeric":{"score":[2]}}]}`},
	}
	for _, rc := range repeatedKeyCases {
		cases = append(cases, row{name: rc.name, op: rc.op, doc: rc.doc, msg: "repeated key " + rc.key})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(what string, m *Mutation, err error) {
				t.Helper()
				if err == nil {
					t.Fatalf("%s accepted %s as %+v", what, tc.doc, m)
				}
				var le *hin.LimitError
				if got := errors.As(err, &le); got != tc.limit {
					t.Fatalf("%s: limit error = %v, want %v (%v)", what, got, tc.limit, err)
				}
				var fe *FormatError
				if !tc.limit && !errors.As(err, &fe) {
					t.Fatalf("%s: not a FormatError: %v", what, err)
				}
				if !strings.Contains(err.Error(), tc.msg) {
					t.Fatalf("%s: error %q does not contain %q", what, err, tc.msg)
				}
			}
			m, err := Decode(tc.op, []byte(tc.doc), lim)
			check("Decode", m, err)
			if !tc.body {
				m, err = DecodeRecord([]byte(recordOf(tc.op, tc.doc)), lim)
				check("DecodeRecord", m, err)
			}
		})
	}

	for _, v := range []struct {
		op  Op
		doc string
	}{
		{OpEdges, `{"op":"edges","add":[{"from":"a","to":"b","rel":"r","w":1}]}`},
		{OpAttributes, `{"set":[{"id":"x","terms":{"text":[]}}]}`},                           // an observation clear
		{OpEdges, `{"z":1,"z":2,"add":[{"from":"a","to":"b","rel":"r","w":1,"q":1,"q":2}]}`}, // repeated unknown keys
	} {
		if _, err := Decode(v.op, []byte(v.doc), lim); err != nil {
			t.Fatalf("valid body %s rejected: %v", v.doc, err)
		}
		if _, err := DecodeRecord([]byte(recordOf(v.op, v.doc)), lim); err != nil {
			t.Fatalf("valid record of %s rejected: %v", v.doc, err)
		}
	}
}

// TestErrorsIndependentOfMapOrder pins the attribute walks of validate and
// Apply to name order: a body with several bad attributes gets the same
// error every time, not whichever attribute Go's map iteration meets
// first.
func TestErrorsIndependentOfMapOrder(t *testing.T) {
	lim := hin.Limits{MaxVocab: 8}
	body := []byte(`{"objects":[{"id":"x","type":"t","terms":{"c":[{"t":-1,"c":1}],"b":[{"t":9,"c":1}],"a":[{"t":0,"c":0}],"d":[{"t":1,"c":1}]},"numeric":{"z":[1],"y":[2]}}]}`)
	patch, err := Decode(OpAttributes, []byte(`{"set":[{"id":"p1","numeric":{"zz":[1],"yy":[2],"xx":[3]},"terms":{"ww":[{"t":0,"c":1}],"vv":[{"t":0,"c":1}]}}]}`), lim)
	if err != nil {
		t.Fatal(err)
	}
	n := testNetwork(t)
	for i := 0; i < 100; i++ {
		_, err := Decode(OpObjects, body, lim)
		var fe *FormatError
		if !errors.As(err, &fe) || fe.Msg != `objects[0] ("x"): attribute "a" count 0 must be positive finite` {
			t.Fatalf("decode %d: got %v, want the zero count of attribute a", i, err)
		}
		_, err = Apply(n, patch)
		var ae *ApplyError
		if !errors.As(err, &ae) || ae.Msg != `object "p1": unknown attribute "vv"` {
			t.Fatalf("apply %d: got %v, want unknown attribute vv", i, err)
		}
	}
}

// TestApplySemantics pins apply-time contradictions (all *ApplyError) and
// the immutability of the input view.
func TestApplySemantics(t *testing.T) {
	n := testNetwork(t)
	before, _ := n.MarshalJSON()

	bad := []struct {
		name string
		op   Op
		doc  string
	}{
		{name: "add edge unknown object", op: OpEdges, doc: `{"add":[{"from":"p1","to":"ghost","rel":"cites","w":1}]}`},
		{name: "remove unknown relation", op: OpEdges, doc: `{"remove":[{"from":"p1","to":"p2","rel":"ghost"}]}`},
		{name: "remove missing edge", op: OpEdges, doc: `{"remove":[{"from":"p2","to":"p1","rel":"cites"}]}`},
		{name: "duplicate object id", op: OpObjects, doc: `{"objects":[{"id":"p1","type":"paper"}]}`},
		{name: "link to unknown object", op: OpObjects, doc: `{"objects":[{"id":"p9","type":"paper"}],"links":[{"from":"p9","to":"ghost","rel":"cites","w":1}]}`},
		{name: "unknown attribute", op: OpObjects, doc: `{"objects":[{"id":"p9","type":"paper","terms":{"ghost":[{"t":0,"c":1}]}}]}`},
		{name: "kind mismatch", op: OpObjects, doc: `{"objects":[{"id":"p9","type":"paper","numeric":{"text":[1]}}]}`},
		{name: "term outside vocab", op: OpObjects, doc: `{"objects":[{"id":"p9","type":"paper","terms":{"text":[{"t":99,"c":1}]}}]}`},
		{name: "patch unknown object", op: OpAttributes, doc: `{"set":[{"id":"ghost","numeric":{"score":[1]}}]}`},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Decode(tc.op, []byte(tc.doc), noLimits())
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if _, err := Apply(n, m); err == nil {
				t.Fatal("apply accepted a contradiction")
			} else {
				var ae *ApplyError
				if !errors.As(err, &ae) {
					t.Fatalf("not an ApplyError: %v", err)
				}
			}
		})
	}

	// A successful apply yields a new view and leaves the input untouched.
	m, err := Decode(OpObjects, []byte(`{"objects":[{"id":"p3","type":"paper","terms":{"text":[{"t":2,"c":1}]}}],"links":[{"from":"p3","to":"p1","rel":"cites","w":1}]}`), noLimits())
	if err != nil {
		t.Fatal(err)
	}
	next, err := Apply(n, m)
	if err != nil {
		t.Fatal(err)
	}
	if next.NumObjects() != 4 || next.NumEdges() != 3 {
		t.Fatalf("next view: %d objects %d edges, want 4 and 3", next.NumObjects(), next.NumEdges())
	}
	after, _ := n.MarshalJSON()
	if !bytes.Equal(before, after) {
		t.Fatal("Apply mutated the input network")
	}

	// Removing the just-added parallel triple removes every matching edge.
	b := hin.NewBuilder()
	hin.CloneInto(b, next, nil, nil)
	b.AddLink("p3", "p1", "cites", 5) // second parallel edge
	withDup, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rm, _ := Decode(OpEdges, []byte(`{"remove":[{"from":"p3","to":"p1","rel":"cites"}]}`), noLimits())
	pruned, err := Apply(withDup, rm)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.NumEdges() != 2 {
		t.Fatalf("parallel removal left %d edges, want 2", pruned.NumEdges())
	}
}

// TestApplyDeterminism pins the canonicalization contract the refit
// bitwise-identity guarantee rests on: a network mutated into shape X is
// byte-for-byte the network built from scratch with content X, regardless
// of how the mutations were chunked.
func TestApplyDeterminism(t *testing.T) {
	n := testNetwork(t)
	docs := []struct {
		op  Op
		doc string
	}{
		{OpObjects, `{"objects":[{"id":"p3","type":"paper","terms":{"text":[{"t":1,"c":2}]}}],"links":[{"from":"p3","to":"p2","rel":"cites","w":1}]}`},
		{OpEdges, `{"add":[{"from":"a1","to":"p3","rel":"writes","w":1}],"remove":[{"from":"p1","to":"p2","rel":"cites"}]}`},
		{OpAttributes, `{"set":[{"id":"p1","terms":{"text":[{"t":4,"c":1}]},"numeric":{"score":[2.5]}}]}`},
	}
	for _, d := range docs {
		m, err := Decode(d.op, []byte(d.doc), noLimits())
		if err != nil {
			t.Fatal(err)
		}
		if n, err = Apply(n, m); err != nil {
			t.Fatal(err)
		}
	}

	b := hin.NewBuilder()
	b.DeclareAttribute(hin.AttrSpec{Name: "text", Kind: hin.Categorical, VocabSize: 8})
	b.DeclareAttribute(hin.AttrSpec{Name: "score", Kind: hin.Numeric})
	b.AddObject("p1", "paper")
	b.AddObject("p2", "paper")
	b.AddObject("a1", "author")
	b.AddObject("p3", "paper")
	b.AddLink("a1", "p1", "writes", 1)
	b.AddLink("p3", "p2", "cites", 1)
	b.AddLink("a1", "p3", "writes", 1)
	b.AddTermCount("p1", "text", 4, 1)
	b.AddNumeric("p1", "score", 2.5)
	b.AddNumeric("p2", "score", 1.5)
	b.AddTermCount("p3", "text", 1, 2)
	scratch, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	got, _ := n.MarshalJSON()
	want, _ := scratch.MarshalJSON()
	if !bytes.Equal(got, want) {
		t.Fatalf("mutated network diverges from from-scratch build:\n got %s\nwant %s", got, want)
	}
}

// TestTouched pins the drift-sample source: first-appearance order,
// duplicates dropped, every surface contributing.
func TestTouched(t *testing.T) {
	m := &Mutation{
		Op:     OpEdges,
		Add:    []Link{{From: "a", To: "b", Relation: "r", Weight: 1}, {From: "b", To: "c", Relation: "r", Weight: 1}},
		Remove: []EdgeRef{{From: "a", To: "d", Relation: "r"}},
	}
	got := m.Touched()
	want := []string{"a", "b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("touched %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("touched %v, want %v", got, want)
		}
	}
}

// TestLogAppendReplay drives the durability loop: append N records, reopen
// the store, and replay them in order; a corrupt mid-log record truncates
// the prefix there and deletes the tail.
func TestLogAppendReplay(t *testing.T) {
	dir := t.TempDir()
	blobs, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Open(blobs, "netA")
	if err != nil {
		t.Fatal(err)
	}
	muts := []*Mutation{
		{Op: OpEdges, Add: []Link{{From: "a", To: "b", Relation: "r", Weight: 1}}},
		{Op: OpObjects, Objects: []Object{{ID: "x", Type: "t"}}},
		{Op: OpAttributes, Set: []AttrPatch{{ID: "x", Numeric: map[string][]float64{"score": {1}}}}},
	}
	for i, m := range muts {
		seq, err := l.Append(m)
		if err != nil {
			t.Fatal(err)
		}
		if seq != i {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	if l.Depth() != 3 {
		t.Fatalf("depth %d, want 3", l.Depth())
	}

	// A second log on the same bucket must not see netA's records.
	other, err := Open(blobs, "netB")
	if err != nil {
		t.Fatal(err)
	}
	if other.Depth() != 0 {
		t.Fatalf("netB depth %d, want 0", other.Depth())
	}

	// Reopen: the sequence resumes past the durable records.
	reopened, err := Open(blobs, "netA")
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Depth() != 3 {
		t.Fatalf("reopened depth %d, want 3", reopened.Depth())
	}
	var ops []Op
	applied, err := reopened.Replay(noLimits(), func(seq int, m *Mutation) error {
		if seq != len(ops) {
			t.Fatalf("replay seq %d out of order", seq)
		}
		ops = append(ops, m.Op)
		return nil
	})
	if err != nil || applied != 3 {
		t.Fatalf("replay: %d, %v", applied, err)
	}
	if ops[0] != OpEdges || ops[1] != OpObjects || ops[2] != OpAttributes {
		t.Fatalf("replay order %v", ops)
	}

	// Corrupt the middle record: replay recovers only the prefix before it
	// and durably removes everything from the corruption onward.
	path := filepath.Join(dir, Bucket, recordName("netA", 1)+".bin")
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	damaged, err := Open(blobs, "netA")
	if err != nil {
		t.Fatal(err)
	}
	applied, err = damaged.Replay(noLimits(), func(int, *Mutation) error { return nil })
	if err != nil || applied != 1 {
		t.Fatalf("post-corruption replay: %d, %v", applied, err)
	}
	ids, err := blobs.List(Bucket)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != recordName("netA", 0) {
		t.Fatalf("post-truncation records %v, want only seq 0", ids)
	}
	// The next append continues the truncated prefix.
	if seq, err := damaged.Append(muts[0]); err != nil || seq != 1 {
		t.Fatalf("post-truncation append seq %d, %v", seq, err)
	}

	// Purge leaves nothing behind.
	if err := damaged.Purge(); err != nil {
		t.Fatal(err)
	}
	if ids, _ := blobs.List(Bucket); len(ids) != 0 {
		t.Fatalf("purge left %v", ids)
	}
}

// TestMemoryOnlyLog pins the nil-store degradation: appends advance the
// sequence, replay restores nothing, purge is a no-op.
func TestMemoryOnlyLog(t *testing.T) {
	l, err := Open(nil, "net")
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := l.Append(&Mutation{Op: OpEdges, Add: []Link{{From: "a", To: "b", Relation: "r", Weight: 1}}}); err != nil || seq != 0 {
		t.Fatalf("append: %d, %v", seq, err)
	}
	if l.Depth() != 1 {
		t.Fatalf("depth %d", l.Depth())
	}
	applied, err := l.Replay(noLimits(), func(int, *Mutation) error { t.Fatal("replayed a memory-only log"); return nil })
	if err != nil || applied != 0 {
		t.Fatalf("replay: %d, %v", applied, err)
	}
	if err := l.Purge(); err != nil {
		t.Fatal(err)
	}
}

// TestListNetworkIDs pins the recovery scan: distinct IDs, sorted, with
// dotted network IDs resolved by the LAST dot (IDs may contain dots).
func TestListNetworkIDs(t *testing.T) {
	dir := t.TempDir()
	blobs, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := &Mutation{Op: OpEdges, Add: []Link{{From: "a", To: "b", Relation: "r", Weight: 1}}}
	for _, id := range []string{"zz", "net.v2", "aa"} {
		l, err := Open(blobs, id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(m); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := ListNetworkIDs(blobs)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"aa", "net.v2", "zz"}
	if len(ids) != len(want) {
		t.Fatalf("ids %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids %v, want %v", ids, want)
		}
	}
}
