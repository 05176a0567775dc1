package hin

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// networkJSON is the on-disk representation: self-describing, stable across
// versions of the in-memory layout, and editable by hand for small networks.
type networkJSON struct {
	Objects    []ObjectDoc `json:"objects"`
	Links      []LinkDoc   `json:"links"`
	Attributes []attrJSON  `json:"attributes"`
}

// The element types below are wire contract beyond the network document:
// mutation bodies and delta-log records carry them too (package deltalog
// names them Object and Link, and the Go SDK NewObject and Edge).

// ObjectDoc is one object of a network document or a mutation: an ID, a
// type, and optional attribute observations keyed by declared attribute
// name. Objects without observations are the paper's incomplete-attribute
// case and cluster through their links.
type ObjectDoc struct {
	ID      string                 `json:"id"`                // object ID, unique within the network
	Type    string                 `json:"type"`              // object type (τ)
	Terms   map[string][]TermCount `json:"terms,omitempty"`   // categorical attribute name → term counts
	Numeric map[string][]float64   `json:"numeric,omitempty"` // numeric attribute name → observations
}

// LinkDoc is one link of a network document or a mutation: object IDs, a
// relation name and a positive finite weight.
type LinkDoc struct {
	From     string  `json:"from"` // source object ID
	To       string  `json:"to"`   // target object ID
	Relation string  `json:"rel"`  // relation name
	Weight   float64 `json:"w"`    // positive finite link weight
}

type attrJSON struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"` // "categorical" | "numeric"
	VocabSize int    `json:"vocab,omitempty"`
}

// MarshalJSON serializes the network.
func (n *Network) MarshalJSON() ([]byte, error) {
	doc := networkJSON{}
	for _, spec := range n.attrs {
		doc.Attributes = append(doc.Attributes, attrJSON{
			Name:      spec.Name,
			Kind:      spec.Kind.String(),
			VocabSize: spec.VocabSize,
		})
	}
	for v, o := range n.objects {
		oj := ObjectDoc{ID: o.ID, Type: o.Type}
		for a, spec := range n.attrs {
			if spec.Kind == Categorical {
				putObs(&oj.Terms, spec.Name, n.catObs[a][v])
			} else {
				putObs(&oj.Numeric, spec.Name, n.numObs[a][v])
			}
		}
		doc.Objects = append(doc.Objects, oj)
	}
	for _, e := range n.edges {
		doc.Links = append(doc.Links, LinkDoc{
			From:     n.objects[e.From].ID,
			To:       n.objects[e.To].ID,
			Relation: n.relations[e.Rel],
			Weight:   e.Weight,
		})
	}
	return json.Marshal(doc)
}

// putObs enters an object's non-empty observation list in its map.
func putObs[T any](m *map[string][]T, attr string, xs []T) {
	if len(xs) > 0 {
		if *m == nil {
			*m = make(map[string][]T)
		}
		(*m)[attr] = xs
	}
}

// Limits bounds what a decoded network may allocate, protecting callers
// that decode untrusted input (the genclusd upload endpoint). A zero field
// means "no limit" on that dimension. MaxVocab matters most: a declared
// vocabulary size is an allocation amplifier — a few bytes of JSON make
// every fit allocate K×VocabSize floats per categorical attribute.
type Limits struct {
	MaxObjects      int // objects in the network
	MaxLinks        int // links in the network
	MaxAttributes   int // declared attributes
	MaxVocab        int // vocabulary size of any categorical attribute
	MaxObservations int // total term-count entries plus numeric observations
}

// LimitError reports input rejected because it exceeds a Limits bound —
// distinguishable (errors.As) from malformed-document errors so servers can
// answer 413 instead of 400.
type LimitError struct {
	Dimension string // "objects", "links", "attributes", "vocabulary", "observations"
	Got, Max  int    // observed count and the bound it exceeded
}

// Error implements the error interface.
func (e *LimitError) Error() string {
	return fmt.Sprintf("hin: %d %s exceeds limit %d", e.Got, e.Dimension, e.Max)
}

// FromJSONLimited parses a network serialized by MarshalJSON, re-running
// full Builder validation, with resource limits enforced before any network
// structure is built — so a small hostile document cannot force a large
// allocation downstream. Limits fields that are zero are unenforced;
// callers decoding input they did not produce should pass real bounds
// (genclus.DefaultDecodeLimits is the library-wide default).
//
// The document is read in one pass. Errors come in a fixed precedence: a
// malformed document (bad syntax, a value of the wrong JSON type, trailing
// data) is a parse error even when it is also over a limit; a well-formed
// document over a limit gets a *LimitError, checked in the order objects,
// links, attributes, vocabulary, observations; Builder errors come last.
// Past a limit the decoder only validates, storing nothing more. Keys match
// as encoding/json matches struct fields (exactly, then case-folded) and
// unknown keys are skipped; a recognised key repeated within one JSON
// object, or an attribute name repeated within one terms or numeric map, is
// a parse error. Observations reach the Builder in document order, so the
// Builder error reported for an invalid network is deterministic.
//
// There is deliberately no unbounded FromJSON: the bounded decoder is the
// only path from bytes to a Network, and "unbounded" is spelled Limits{}.
func FromJSONLimited(data []byte, lim Limits) (*Network, error) {
	d := newDecoder(data, lim)
	if err := d.document(); err != nil {
		return nil, fmt.Errorf("hin: parse network JSON: %w", err)
	}
	if err := d.limitError(); err != nil {
		return nil, err
	}
	return d.build()
}

// WriteTo streams the JSON encoding to w.
func (n *Network) WriteTo(w io.Writer) (int64, error) {
	data, err := n.MarshalJSON()
	if err != nil {
		return 0, err
	}
	m, err := w.Write(data)
	return int64(m), err
}

// SaveFile writes the network to a JSON file.
func (n *Network) SaveFile(path string) error {
	data, err := n.MarshalJSON()
	if err != nil {
		return fmt.Errorf("hin: encode network: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("hin: write %s: %w", path, err)
	}
	return nil
}

// LoadFileLimited reads a network from a JSON file with resource limits
// enforced before any network structure is built. As with FromJSONLimited,
// Limits{} means unbounded and there is no unbounded convenience wrapper.
func LoadFileLimited(path string, lim Limits) (*Network, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("hin: read %s: %w", path, err)
	}
	return FromJSONLimited(data, lim)
}
