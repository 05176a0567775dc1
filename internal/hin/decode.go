package hin

import (
	"fmt"

	"genclus/internal/jsonscan"
)

// decoder reads a network document in one pass over its bytes, on the
// shared reflection-free scanner, and stages what it reads for a Builder.
// Its accept/reject decisions and the networks it builds are those of
// encoding/json decoding into the MarshalJSON structs, then Limits checks,
// then a Builder replay — except that a repeated recognised key is
// rejected (see FromJSONLimited).
type decoder struct {
	jsonscan.Scanner
	lim Limits

	// Counts for the limit checks, and the first vocabulary and running
	// observation total past their bounds. full is set once any count has
	// passed its limit: the rest of the document is still validated, but
	// nothing more is stored.
	nObjects, nLinks, nAttrs int
	nObs                     int
	vocabOver, obsOver       int
	full                     bool

	attrs   []attrDecl
	objects []Object
	groups  []obsGroup
	tcs     stage[TermCount]
	nums    stage[float64]
	links   stage[LinkTokens]
}

type attrDecl struct {
	name, kind string
	vocab      int
}

// obsGroup is one terms or numeric map entry of a staged object, holding
// its term counts or its numeric observations.
type obsGroup struct {
	obj  int
	attr string
	tcs  []TermCount
	nums []float64
}

// stage is an append-only store that never moves what it holds: when its
// block fills, it starts a block twice the size, so staging a large
// document copies nothing as it grows. Elements pushed since the last
// call to run stay contiguous (they move with the new block).
type stage[T any] struct {
	done  [][]T // filled blocks, without the run moved out of each
	buf   []T
	start int // first element of the open run in buf
}

func (s *stage[T]) push(x T) {
	if len(s.buf) == cap(s.buf) {
		nb := make([]T, len(s.buf)-s.start, max(256, 2*cap(s.buf)))
		copy(nb, s.buf[s.start:])
		if s.start > 0 {
			s.done = append(s.done, s.buf[:s.start])
		}
		s.buf, s.start = nb, 0
	}
	s.buf = append(s.buf, x)
}

// add stages x as a run of its own.
func (s *stage[T]) add(x T) {
	s.push(x)
	s.start = len(s.buf)
}

// run returns the elements pushed since the last call and opens a new run.
func (s *stage[T]) run() []T {
	r := s.buf[s.start:len(s.buf):len(s.buf)]
	s.start = len(s.buf)
	return r
}

// blocks returns every staged element, in push order, as consecutive
// blocks.
func (s *stage[T]) blocks() [][]T {
	return append(s.done, s.buf)
}

var (
	docFields  = jsonscan.NewFields("objects", "links", "attributes")
	objFields  = jsonscan.NewFields("id", "type", "terms", "numeric")
	attrFields = jsonscan.NewFields("name", "kind", "vocab")
)

// limitError reports the first exceeded limit in the order objects, links,
// attributes, vocabulary, observations.
func (d *decoder) limitError() error {
	l := d.lim
	switch {
	case l.MaxObjects > 0 && d.nObjects > l.MaxObjects:
		return &LimitError{Dimension: "objects", Got: d.nObjects, Max: l.MaxObjects}
	case l.MaxLinks > 0 && d.nLinks > l.MaxLinks:
		return &LimitError{Dimension: "links", Got: d.nLinks, Max: l.MaxLinks}
	case l.MaxAttributes > 0 && d.nAttrs > l.MaxAttributes:
		return &LimitError{Dimension: "attributes", Got: d.nAttrs, Max: l.MaxAttributes}
	case d.vocabOver > 0:
		return &LimitError{Dimension: "vocabulary", Got: d.vocabOver, Max: l.MaxVocab}
	case d.obsOver > 0:
		return &LimitError{Dimension: "observations", Got: d.obsOver, Max: l.MaxObservations}
	}
	return nil
}

// build replays the staged document into a Builder: attributes, then
// objects, then observations and links in document order.
func (d *decoder) build() (*Network, error) {
	b := NewBuilder()
	for _, a := range d.attrs {
		var kind Kind
		switch a.kind {
		case "categorical":
			kind = Categorical
		case "numeric":
			kind = Numeric
		default:
			return nil, fmt.Errorf("hin: unknown attribute kind %q", a.kind)
		}
		b.DeclareAttribute(AttrSpec{Name: a.name, Kind: kind, VocabSize: a.vocab})
	}
	b.objects = make([]Object, 0, len(d.objects))
	b.idIndex = make(map[string]int, len(d.objects))
	b.edges = make([]Edge, 0, d.nLinks)
	index := make([]int, len(d.objects))
	for i, o := range d.objects {
		index[i] = b.AddObject(o.ID, o.Type)
	}
	for a, spec := range b.attrs {
		if spec.Kind == Categorical {
			b.catObs[a] = make([][]TermCount, len(b.objects))
		} else {
			b.numObs[a] = make([][]float64, len(b.objects))
		}
	}
	for _, g := range d.groups {
		v := index[g.obj]
		if v < 0 {
			continue // AddObject has recorded the error
		}
		a, ok := b.attrIndex[g.attr]
		if !ok {
			b.fail("hin: observation on undeclared attribute %q", g.attr)
			continue
		}
		if g.nums != nil {
			b.addNumerics(v, a, g.nums)
		} else {
			b.addTermCounts(v, a, g.tcs)
		}
	}
	for _, block := range d.links.blocks() {
		for _, l := range block {
			from, okF := b.idIndex[string(d.Bytes(l.From))]
			to, okT := b.idIndex[string(d.Bytes(l.To))]
			if !okF || !okT {
				b.fail("hin: link %s -[%s]-> %s references unknown object", d.Text(l.From), d.Intern(l.Rel), d.Text(l.To))
				continue
			}
			b.AddLinkByIndex(from, to, d.Intern(l.Rel), l.W)
		}
	}
	return b.Build()
}

// newDecoder returns a decoder of data under lim.
func newDecoder(data []byte, lim Limits) *decoder {
	return &decoder{Scanner: jsonscan.Scanner{Data: data}, lim: lim}
}

// ---- document structure -------------------------------------------------

func (d *decoder) document() error {
	return d.Document("the network document", func() error {
		return d.Object(docFields, 1, func(f int) error {
			switch f {
			case 0:
				return d.Array(2, "objects", d.objectElem)
			case 1:
				return d.Array(2, "links", d.linkElem)
			}
			return d.Array(2, "attributes", d.attrElem)
		})
	})
}

// objectElem reads one element of "objects"; null is the zero object.
func (d *decoder) objectElem(depth int, null bool) error {
	d.nObjects++
	d.checkCount(d.lim.MaxObjects, d.nObjects)
	obj := len(d.objects)
	var o Object
	if !null {
		err := d.Object(objFields, depth, func(f int) (err error) {
			var s jsonscan.Span
			switch f {
			case 0:
				if s, err = d.StringValue("id"); err == nil && !d.full {
					o.ID = d.Text(s)
				}
			case 1:
				if s, err = d.StringValue("type"); err == nil && !d.full {
					o.Type = d.Intern(s)
				}
			default:
				err = d.obsMap(depth+1, obj, objFields.Name(f))
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	if d.lim.MaxObservations > 0 && d.nObs > d.lim.MaxObservations && d.obsOver == 0 {
		d.obsOver = d.nObs
	}
	if !d.full {
		d.objects = append(d.objects, o)
	}
	return nil
}

// obsMap reads an object's "terms" or "numeric" map at depth, staging
// each entry that holds observations as a group of object obj.
func (d *decoder) obsMap(depth, obj int, what string) error {
	return d.Map(what, d.Intern, func(attr string) (err error) {
		g := obsGroup{obj: obj, attr: attr}
		if what == "numeric" {
			err = ReadNumList(&d.Scanner, d.addNumeric)
			g.nums = d.nums.run()
		} else {
			err = ReadTermList(&d.Scanner, depth+1, d.addTermCount)
			g.tcs = d.tcs.run()
		}
		if err == nil && !d.full && (len(g.nums) > 0 || len(g.tcs) > 0) {
			d.groups = append(d.groups, g)
		}
		return err
	})
}

func (d *decoder) addTermCount(tc TermCount) {
	if d.addObs() {
		d.tcs.push(tc)
	}
}

func (d *decoder) addNumeric(x float64) {
	if d.addObs() {
		d.nums.push(x)
	}
}

// addObs counts one observation and reports whether to store it.
func (d *decoder) addObs() bool {
	d.nObs++
	d.checkCount(d.lim.MaxObservations, d.nObs)
	return !d.full
}

// linkElem reads one element of "links"; null is the zero link.
func (d *decoder) linkElem(depth int, null bool) error {
	d.nLinks++
	d.checkCount(d.lim.MaxLinks, d.nLinks)
	var l LinkTokens
	if !null {
		var err error
		if l, err = ReadLink(&d.Scanner, depth); err != nil {
			return err
		}
	}
	if !d.full {
		d.links.add(l)
	}
	return nil
}

// attrElem reads one element of "attributes"; null is the zero attribute.
func (d *decoder) attrElem(depth int, null bool) error {
	d.nAttrs++
	d.checkCount(d.lim.MaxAttributes, d.nAttrs)
	var a attrDecl
	if !null {
		err := d.Object(attrFields, depth, func(f int) (err error) {
			var s jsonscan.Span
			switch f {
			case 0:
				if s, err = d.StringValue("name"); err == nil && !d.full {
					a.name = d.Intern(s)
				}
			case 1:
				if s, err = d.StringValue("kind"); err == nil && !d.full {
					a.kind = d.Intern(s)
				}
			default:
				a.vocab, err = d.Int("vocab")
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	if d.lim.MaxVocab > 0 && a.vocab > d.lim.MaxVocab && d.vocabOver == 0 {
		d.vocabOver = a.vocab
		d.full = true
	}
	if !d.full {
		d.attrs = append(d.attrs, a)
	}
	return nil
}

// checkCount stops storage once count has passed a nonzero max.
func (d *decoder) checkCount(max, count int) {
	if max > 0 && count > max {
		d.full = true
	}
}

// ---- wire elements ------------------------------------------------------

// The one reading of the elements the network document, the assign
// request (package infer) and the mutation body (package deltalog) share.
// Each decoder keeps its own staging and takes what these read through
// its callbacks; it reads the terms and numeric maps with jsonscan's Map.

var (
	termFields = jsonscan.NewFields("t", "c")
	linkFields = jsonscan.NewFields("from", "to", "rel", "w")
)

// ReadTermList reads a term-count list (null is empty) at nesting level
// depth, calling add with each element; a null element is the zero
// TermCount.
func ReadTermList(s *jsonscan.Scanner, depth int, add func(TermCount)) error {
	return s.Array(depth, "term counts", func(depth int, null bool) (err error) {
		var tc TermCount
		if !null {
			err = s.Object(termFields, depth, func(f int) (err error) {
				if f == 0 {
					tc.Term, err = s.Int("t")
				} else {
					tc.Count, err = s.Float("c")
				}
				return err
			})
		}
		if err == nil {
			add(tc)
		}
		return err
	})
}

// ReadNumList reads a numeric observation list (null is empty), calling
// add with each value; a null element is 0.
func ReadNumList(s *jsonscan.Scanner, add func(float64)) error {
	return s.List("numeric observations", func() error {
		x, err := s.Float("numeric observation")
		if err == nil {
			add(x)
		}
		return err
	})
}

// LinkTokens is a LinkDoc as ReadLink reads it: its strings as tokens for
// the caller to decode, its weight as a number.
type LinkTokens struct {
	From, To, Rel jsonscan.Span // the tokens of the object IDs and the relation name
	W             float64       // the link weight
}

// ReadLink reads the members of a link {from,to,rel,w} after its '{';
// depth is the link's nesting level.
func ReadLink(s *jsonscan.Scanner, depth int) (l LinkTokens, err error) {
	err = s.Object(linkFields, depth, func(f int) (err error) {
		switch f {
		case 0:
			l.From, err = s.StringValue("from")
		case 1:
			l.To, err = s.StringValue("to")
		case 2:
			l.Rel, err = s.StringValue("rel")
		default:
			l.W, err = s.Float("w")
		}
		return err
	})
	return l, err
}
