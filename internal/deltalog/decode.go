package deltalog

import (
	"genclus/internal/hin"
	"genclus/internal/jsonscan"
)

// decoder reads a mutation document on the shared JSON scanner, with the
// element readers of package hin.
type decoder struct{ jsonscan.Scanner }

var (
	mutationFields = jsonscan.NewFields("op", "add", "remove", "objects", "links", "set")
	edgeRefFields  = jsonscan.NewFields("from", "to", "rel")
	objectFields   = jsonscan.NewFields("id", "type", "terms", "numeric")
	patchFields    = jsonscan.NewFields("id", "terms", "numeric")
)

// parse reads a mutation document in one pass into the Mutation that
// encoding/json decoding builds, with the same nil and empty slices and
// maps, except that a recognised key repeated within one JSON object
// (folded as encoding/json folds it) or an attribute repeated within one
// terms or numeric map is an error that names it.
func parse(data []byte) (*Mutation, error) {
	d := &decoder{jsonscan.Scanner{Data: data}}
	m := &Mutation{}
	return m, d.Document("the mutation", func() error {
		return d.Object(mutationFields, 1, func(f int) error {
			switch f {
			case 0:
				return d.string("op", (*string)(&m.Op))
			case 1:
				return list(d, "add", &m.Add, d.link)
			case 2:
				return list(d, "remove", &m.Remove, d.edgeRef)
			case 3:
				return list(d, "objects", &m.Objects, d.object)
			case 4:
				return list(d, "links", &m.Links, d.link)
			}
			return list(d, "set", &m.Set, d.patch)
		})
	})
}

// list reads a top-level array into *dst as encoding/json does: null
// leaves it nil, [] makes it empty, and a null element is the zero value.
// read reads one element's members after its '{'.
func list[T any](d *decoder, what string, dst *[]T, read func(depth int, x *T) error) error {
	if d.Peek() == '[' {
		*dst = []T{}
	}
	return d.Array(2, what, func(depth int, null bool) error {
		*dst = append(*dst, *new(T))
		if null {
			return nil
		}
		return read(depth, &(*dst)[len(*dst)-1])
	})
}

// string reads a string field into *dst; null is the empty string.
func (d *decoder) string(what string, dst *string) error {
	tok, err := d.StringValue(what)
	if err == nil {
		*dst = d.Text(tok)
	}
	return err
}

func (d *decoder) link(depth int, l *Link) error {
	t, err := hin.ReadLink(&d.Scanner, depth)
	if err == nil {
		*l = Link{From: d.Text(t.From), To: d.Text(t.To), Relation: d.Text(t.Rel), Weight: t.W}
	}
	return err
}

func (d *decoder) edgeRef(depth int, r *EdgeRef) error {
	return d.Object(edgeRefFields, depth, func(f int) error {
		return d.string(edgeRefFields.Name(f), [...]*string{&r.From, &r.To, &r.Relation}[f])
	})
}

func (d *decoder) object(depth int, o *Object) error {
	return d.Object(objectFields, depth, func(f int) error {
		if f == 1 {
			return d.string("type", &o.Type)
		}
		return d.observed(depth, objectFields.Name(f), &o.ID, &o.Terms, &o.Numeric)
	})
}

func (d *decoder) patch(depth int, p *AttrPatch) error {
	return d.Object(patchFields, depth, func(f int) error {
		return d.observed(depth, patchFields.Name(f), &p.ID, &p.Terms, &p.Numeric)
	})
}

// observed reads the "id", "terms" or "numeric" field of an object or a
// patch at depth.
func (d *decoder) observed(depth int, field string, id *string, terms *map[string][]TermCount, numeric *map[string][]float64) error {
	switch field {
	case "id":
		return d.string(field, id)
	case "terms":
		return obsMap(d, field, terms, func(add func(TermCount)) error { return hin.ReadTermList(&d.Scanner, depth+2, add) })
	}
	return obsMap(d, field, numeric, func(add func(float64)) error { return hin.ReadNumList(&d.Scanner, add) })
}

// obsMap reads a terms or numeric map into *dst as encoding/json does:
// null leaves it nil, {} makes it empty, and an attribute's null list is a
// nil entry where [] is an empty one. read reads one list.
func obsMap[T any](d *decoder, what string, dst *map[string][]T, read func(add func(T)) error) error {
	if d.Peek() == '{' {
		*dst = map[string][]T{}
	}
	return d.Map(what, d.Intern, func(attr string) error {
		var xs []T
		if d.Peek() == '[' {
			xs = []T{}
		}
		err := read(func(x T) { xs = append(xs, x) })
		(*dst)[attr] = xs
		return err
	})
}
