package infer

import (
	"fmt"
	"slices"
	"strings"

	"genclus/internal/hin"
	"genclus/internal/jsonscan"
)

// DecodeError reports a structurally malformed assign request document —
// unparsable JSON, no objects, a negative top_k. Serving paths map it to
// 400; limit overflows come back as *LimitError instead.
type DecodeError struct {
	// Msg describes what was rejected.
	Msg string
}

// Error implements the error interface.
func (e *DecodeError) Error() string { return e.Msg }

// DecodeRequest parses an assign request document (a RequestDoc) into
// engine queries, in request order, and returns them with the request's
// top_k. maxBatch > 0 bounds the number of objects (overflow is a
// *LimitError); structural problems are a *DecodeError, checked in the
// order: the document parses, it has objects, they fit maxBatch, top_k is
// not negative. Map-keyed attribute observations are sorted by name, so
// the decoded queries — and any later validation error — are a pure
// function of the document bytes. Semantic validation (unknown names,
// out-of-vocabulary terms, non-finite values) is Engine.Validate's job.
//
// The document is read in one pass on the shared JSON scanner, with no
// reflection and no intermediate RequestDoc. Its accept/reject decisions
// and the queries it returns are those of encoding/json decoding into a
// RequestDoc, except that a repeated recognised key (a field of one
// object, or an attribute of one terms or numeric map) is a *DecodeError
// naming the key.
func DecodeRequest(data []byte, maxBatch int) (topK int, queries []Query, err error) {
	d := &requestDecoder{Scanner: jsonscan.Scanner{Data: data}, text: string(data), maxBatch: maxBatch}
	if err := d.Document("the assign request", d.request); err != nil {
		return 0, nil, &DecodeError{Msg: fmt.Sprintf("parse assign request: %v", err)}
	}
	switch {
	case d.nObjects == 0:
		return 0, nil, &DecodeError{Msg: "assign request has no objects"}
	case maxBatch > 0 && d.nObjects > maxBatch:
		return 0, nil, &LimitError{Query: -1, What: "batch size", Got: d.nObjects, Limit: maxBatch}
	case d.topK < 0:
		return 0, nil, &DecodeError{Msg: "top_k must be ≥ 0"}
	}
	return d.topK, d.queries(), nil
}

// requestDecoder stages an assign request's queries as it reads them:
// every query's links, term counts and numeric values go to one slice per
// kind, and queries assembles the Query values once the document has
// parsed. Once the object count passes maxBatch the rest of the document
// is still validated, but nothing more is stored.
type requestDecoder struct {
	jsonscan.Scanner
	text     string // the document as a string: a string token without escapes is a substring of it
	maxBatch int
	nObjects int
	topK     int
	full     bool

	objects []objectStage
	links   []Link
	tcs     []hin.TermCount
	nums    []float64
	cats    []obsStage // terms map entries, sorted by name within each object
	numObs  []obsStage // numeric map entries, sorted by name within each object
}

// objectStage is one stored query object: its id and the end of its run
// in each staging slice (its run starts where the previous object's ends).
type objectStage struct {
	id                string
	links, cats, nums int
}

// obsStage is one terms or numeric map entry: the attribute and its run
// of term counts or values.
type obsStage struct {
	attr       string
	start, end int
}

var (
	requestFields = jsonscan.NewFields("objects", "top_k")
	objectFields  = jsonscan.NewFields("id", "links", "terms", "numeric")
	linkFields    = jsonscan.NewFields("rel", "to", "w")
)

// queries assembles the staged objects into queries. Empty runs are nil,
// as in a Query built from a RequestDoc.
func (d *requestDecoder) queries() []Query {
	out := make([]Query, len(d.objects))
	cats := make([]CatObs, len(d.cats))
	for i, o := range d.cats {
		cats[i] = CatObs{Attr: o.attr, Terms: d.tcs[o.start:o.end:o.end]}
	}
	nums := make([]NumObs, len(d.numObs))
	for i, o := range d.numObs {
		nums[i] = NumObs{Attr: o.attr, Values: d.nums[o.start:o.end:o.end]}
	}
	var link, cat, num int
	for i, o := range d.objects {
		q := &out[i]
		q.ID = o.id
		if o.links > link {
			q.Links = d.links[link:o.links:o.links]
		}
		if o.cats > cat {
			q.Terms = cats[cat:o.cats:o.cats]
		}
		if o.nums > num {
			q.Numeric = nums[num:o.nums:o.nums]
		}
		link, cat, num = o.links, o.cats, o.nums
	}
	return out
}

// str returns a string token's decoded contents: a substring of the
// document when it holds no escape, else a fresh string.
func (d *requestDecoder) str(tok jsonscan.Span) string {
	if !tok.Slow {
		return d.text[tok.Start:tok.End]
	}
	return string(d.Bytes(tok))
}

func (d *requestDecoder) request() error {
	return d.Object(requestFields, 1, func(f int) (err error) {
		if f == 0 {
			return d.Array(2, "objects", d.objectElem)
		}
		d.topK, err = d.Int("top_k")
		return err
	})
}

// objectElem reads one element of "objects"; null is the zero object.
func (d *requestDecoder) objectElem(depth int, null bool) error {
	d.nObjects++
	if d.maxBatch > 0 && d.nObjects > d.maxBatch {
		d.full = true
	}
	var id string
	if !null {
		err := d.Object(objectFields, depth, func(f int) (err error) {
			switch f {
			case 0:
				var tok jsonscan.Span
				if tok, err = d.StringValue("id"); err == nil && !d.full {
					id = d.str(tok)
				}
			case 1:
				err = d.Array(depth+1, "links", d.linkElem)
			default:
				err = d.obsMap(depth+1, objectFields.Name(f))
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	if !d.full {
		d.objects = append(d.objects, objectStage{id: id, links: len(d.links), cats: len(d.cats), nums: len(d.numObs)})
	}
	return nil
}

// linkElem reads one element of "links"; null is the zero link.
func (d *requestDecoder) linkElem(depth int, null bool) error {
	var l Link
	if !null {
		err := d.Object(linkFields, depth, func(f int) (err error) {
			var tok jsonscan.Span
			switch f {
			case 0:
				if tok, err = d.StringValue("rel"); err == nil && !d.full {
					l.Relation = d.str(tok)
				}
			case 1:
				if tok, err = d.StringValue("to"); err == nil && !d.full {
					l.To = d.str(tok)
				}
			default:
				l.Weight, err = d.Float("w")
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	if !d.full {
		d.links = append(d.links, l)
	}
	return nil
}

// obsMap reads an object's "terms" or "numeric" map (null is absent). An
// entry whose value is null is an attribute observed with no values, as
// encoding/json leaves it in the map.
func (d *requestDecoder) obsMap(depth int, what string) error {
	entries, staged := &d.cats, func() int { return len(d.tcs) }
	if what == "numeric" {
		entries, staged = &d.numObs, func() int { return len(d.nums) }
	}
	mark := len(*entries)
	err := d.Map(what, d.str, func(attr string) (err error) {
		e := obsStage{attr: attr, start: staged()}
		if what == "numeric" {
			err = hin.ReadNumList(&d.Scanner, d.addNumeric)
		} else {
			err = hin.ReadTermList(&d.Scanner, depth+1, d.addTermCount)
		}
		if err == nil && !d.full {
			e.end = staged()
			*entries = append(*entries, e)
		}
		return err
	})
	if err != nil {
		return err
	}
	slices.SortFunc((*entries)[mark:], func(a, b obsStage) int { return strings.Compare(a.attr, b.attr) })
	return nil
}

func (d *requestDecoder) addTermCount(tc hin.TermCount) {
	if !d.full {
		d.tcs = append(d.tcs, tc)
	}
}

func (d *requestDecoder) addNumeric(x float64) {
	if !d.full {
		d.nums = append(d.nums, x)
	}
}

// DecodeResponse reads an assign reply document into out, which must be
// the zero ResponseDoc. It reads the document in one pass on the shared
// JSON scanner and builds the value json.Unmarshal builds — nil and empty
// slices included — except that a repeated recognised key is an error
// naming it. The assignments' theta rows and top lists share one backing
// array each.
func DecodeResponse(data []byte, out *ResponseDoc) error {
	d := &responseDecoder{Scanner: jsonscan.Scanner{Data: data}}
	if err := d.Document("the assign response", func() error { return d.response(out) }); err != nil {
		return err
	}
	if d.thetas == nil {
		d.thetas = []float64{} // an empty theta list is [], not nil
	}
	if d.tops == nil {
		d.tops = []ClusterProbDoc{}
	}
	for i, sp := range d.spans {
		a := &out.Assignments[i]
		if sp.theta.set {
			a.Theta = d.thetas[sp.theta.start:sp.theta.end:sp.theta.end]
		}
		if sp.top.set {
			a.Top = d.tops[sp.top.start:sp.top.end:sp.top.end]
		}
	}
	return nil
}

// responseDecoder stages an assign reply's theta rows and top lists in one
// backing array each; spans records where each assignment's lists lie.
type responseDecoder struct {
	jsonscan.Scanner
	thetas []float64
	tops   []ClusterProbDoc
	spans  []assignmentSpans
}

// assignmentSpans locates one assignment's theta row and top list.
type assignmentSpans struct {
	theta, top run
}

// run is a list's range in a staging slice; set is false for a list that
// was absent or null.
type run struct {
	start, end int
	set        bool
}

var (
	responseFields    = jsonscan.NewFields("model_id", "k", "assignments", "batched")
	assignmentFields  = jsonscan.NewFields("id", "cluster", "theta", "top", "fold_in_iters")
	clusterProbFields = jsonscan.NewFields("cluster", "p")
)

func (d *responseDecoder) response(out *ResponseDoc) error {
	return d.Object(responseFields, 1, func(f int) (err error) {
		switch f {
		case 0:
			var tok jsonscan.Span
			if tok, err = d.StringValue("model_id"); err == nil {
				out.ModelID = d.Text(tok)
			}
		case 1:
			out.K, err = d.Int("k")
		case 2:
			if d.Peek() == '[' {
				out.Assignments = []AssignmentDoc{}
			}
			err = d.Array(2, "assignments", func(depth int, null bool) error {
				out.Assignments = append(out.Assignments, AssignmentDoc{})
				d.spans = append(d.spans, assignmentSpans{})
				if null {
					return nil
				}
				return d.assignment(depth, &out.Assignments[len(out.Assignments)-1], &d.spans[len(d.spans)-1])
			})
		default:
			out.Batched, err = d.Bool("batched")
		}
		return err
	})
}

// assignment reads one element of "assignments" after its '{'.
func (d *responseDecoder) assignment(depth int, a *AssignmentDoc, sp *assignmentSpans) error {
	return d.Object(assignmentFields, depth, func(f int) (err error) {
		switch f {
		case 0:
			var tok jsonscan.Span
			if tok, err = d.StringValue("id"); err == nil {
				a.ID = d.Text(tok)
			}
		case 1:
			a.Cluster, err = d.Int("cluster")
		case 2:
			start := len(d.thetas)
			var null bool
			d.thetas, null, err = d.ReadFloats(d.thetas, "theta")
			sp.theta = run{start: start, end: len(d.thetas), set: !null}
		case 3:
			start := len(d.tops)
			null := d.Peek() == 'n'
			err = d.Array(depth+1, "top", func(depth int, null bool) error {
				d.tops = append(d.tops, ClusterProbDoc{})
				if null {
					return nil
				}
				cp := &d.tops[len(d.tops)-1]
				return d.Object(clusterProbFields, depth, func(f int) (err error) {
					if f == 0 {
						cp.Cluster, err = d.Int("cluster")
					} else {
						cp.P, err = d.Float("p")
					}
					return err
				})
			})
			sp.top = run{start: start, end: len(d.tops), set: !null}
		default:
			a.FoldInIters, err = d.Int("fold_in_iters")
		}
		return err
	})
}
