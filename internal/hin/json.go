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
	Objects    []objectJSON `json:"objects"`
	Links      []linkJSON   `json:"links"`
	Attributes []attrJSON   `json:"attributes"`
}

type objectJSON struct {
	ID      string               `json:"id"`
	Type    string               `json:"type"`
	Terms   map[string][]tcJSON  `json:"terms,omitempty"`   // attr name → term counts
	Numeric map[string][]float64 `json:"numeric,omitempty"` // attr name → observations
}

type tcJSON struct {
	Term  int     `json:"t"`
	Count float64 `json:"c"`
}

type linkJSON struct {
	From     string  `json:"from"`
	To       string  `json:"to"`
	Relation string  `json:"rel"`
	Weight   float64 `json:"w"`
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
		oj := objectJSON{ID: o.ID, Type: o.Type}
		for a, spec := range n.attrs {
			switch spec.Kind {
			case Categorical:
				if tcs := n.catObs[a][v]; len(tcs) > 0 {
					if oj.Terms == nil {
						oj.Terms = make(map[string][]tcJSON)
					}
					list := make([]tcJSON, len(tcs))
					for i, tc := range tcs {
						list[i] = tcJSON{Term: tc.Term, Count: tc.Count}
					}
					oj.Terms[spec.Name] = list
				}
			case Numeric:
				if xs := n.numObs[a][v]; len(xs) > 0 {
					if oj.Numeric == nil {
						oj.Numeric = make(map[string][]float64)
					}
					oj.Numeric[spec.Name] = xs
				}
			}
		}
		doc.Objects = append(doc.Objects, oj)
	}
	for _, e := range n.edges {
		doc.Links = append(doc.Links, linkJSON{
			From:     n.objects[e.From].ID,
			To:       n.objects[e.To].ID,
			Relation: n.relations[e.Rel],
			Weight:   e.Weight,
		})
	}
	return json.Marshal(doc)
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
	d := &decoder{data: data, lim: lim, strs: make(map[string]string)}
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
