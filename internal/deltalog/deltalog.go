// Package deltalog is the streaming-mutation subsystem under genclusd's
// network mutation API: a typed mutation wire format with a bounded
// decoder (the mutation trust boundary), a pure apply step that turns a
// mutation plus an immutable hin.Network into the next immutable view
// generation, and a crash-safe per-network delta log built on the
// internal/store blob envelope (CRC-32C, temp+rename+fsync — when Append
// returns nil the record is on disk).
//
// The paper's model (Sun, Aggarwal, Han — VLDB 2012) fits a fixed network;
// the serving reality is a network that never stops changing. The delta
// log is what connects the two: every mutation is validated, logged, and
// applied as a full rebuild through hin.CloneInto + Builder.Build, whose
// canonicalization makes generation N of a mutated network bit-for-bit the
// network a from-scratch build of the same content would produce. In-flight
// fits and assigns keep the generation they started with — a live view is
// never edited — and recovery replays base + log to reconstruct the exact
// live generation after a SIGKILL.
package deltalog

import (
	"encoding/json"
	"fmt"
	"math"

	"genclus/internal/hin"
)

// Op identifies which mutation surface a record came from; it is stored in
// every log record so replay dispatches without out-of-band context.
type Op string

// The three mutation surfaces, matching the HTTP routes one-to-one.
const (
	// OpEdges adds and/or removes links between existing objects
	// (POST /v1/networks/{id}/edges).
	OpEdges Op = "edges"
	// OpObjects adds new objects, optionally with observations and links
	// (POST /v1/networks/{id}/objects).
	OpObjects Op = "objects"
	// OpAttributes replaces per-object attribute observations
	// (PATCH /v1/networks/{id}/attributes).
	OpAttributes Op = "attributes"
)

// The mutation element types below are also the Go SDK's (package client
// names them Edge, EdgeRef, TermCount, NewObject and AttributePatch), so
// their field tags are /v1 wire contract as well as log record format.

// Link is one link to add: object IDs, a relation name (which may be new
// to the network) and a positive finite weight. The field tags match the
// network document's link shape.
type Link struct {
	From     string  `json:"from"` // source object ID
	To       string  `json:"to"`   // target object ID
	Relation string  `json:"rel"`  // relation name
	Weight   float64 `json:"w"`    // positive finite link weight
}

// EdgeRef names an edge to remove by its (from, relation, to) triple.
// Removal deletes every parallel edge matching the triple; a triple that
// matches no edge is an ApplyError — removal of the absent is a
// contradiction, not a no-op.
type EdgeRef struct {
	From     string `json:"from"` // source object ID
	To       string `json:"to"`   // target object ID
	Relation string `json:"rel"`  // relation name
}

// TermCount is one sparse categorical observation entry, in the network
// document's compact {"t":term,"c":count} shape.
type TermCount struct {
	Term  int     `json:"t"` // term index within the attribute's vocabulary
	Count float64 `json:"c"` // positive finite count
}

// Object is one object to add: an ID new to the network, a type, and
// optional attribute observations keyed by declared attribute name.
// Objects without observations are the paper's incomplete-attribute case
// and cluster through their links.
type Object struct {
	ID      string                 `json:"id"`                // object ID, unique within the network
	Type    string                 `json:"type"`              // object type (τ)
	Terms   map[string][]TermCount `json:"terms,omitempty"`   // categorical attribute name → term counts
	Numeric map[string][]float64   `json:"numeric,omitempty"` // numeric attribute name → observations
}

// AttrPatch replaces one existing object's observations for the named
// attributes. An attribute present with an empty list clears the object's
// observation (the incomplete-attribute case); attributes not named are
// untouched.
type AttrPatch struct {
	ID      string                 `json:"id"`                // existing object ID
	Terms   map[string][]TermCount `json:"terms,omitempty"`   // categorical attribute name → replacement term counts
	Numeric map[string][]float64   `json:"numeric,omitempty"` // numeric attribute name → replacement observations
}

// Mutation is one decoded mutation — the union of the three op payloads,
// discriminated by Op. Only the fields of the matching op may be set. It is
// both the delta-log record (Op always set) and the request body the Go
// SDK sends to the mutation endpoints (Op omitted: the endpoint implies it).
type Mutation struct {
	Op Op `json:"op,omitempty"` // the mutation surface; selects the payload below
	// OpEdges payload.
	Add    []Link    `json:"add,omitempty"`    // links to add
	Remove []EdgeRef `json:"remove,omitempty"` // edges to remove
	// OpObjects payload. Links may reference both existing and newly added
	// objects.
	Objects []Object `json:"objects,omitempty"` // objects to add
	Links   []Link   `json:"links,omitempty"`   // links touching them
	// OpAttributes payload.
	Set []AttrPatch `json:"set,omitempty"`
}

// FormatError reports a malformed mutation document — bad JSON, an empty
// or self-contradictory payload, a non-finite number. Servers map it
// to 400.
type FormatError struct {
	// Msg describes what was rejected.
	Msg string
}

// Error implements the error interface.
func (e *FormatError) Error() string { return "deltalog: " + e.Msg }

// ApplyError reports a structurally valid mutation that contradicts the
// network it is applied to — an unknown object or edge, a duplicate ID, a
// term outside an attribute's vocabulary. Servers map it to 400.
type ApplyError struct {
	// Msg describes the contradiction.
	Msg string
}

// Error implements the error interface.
func (e *ApplyError) Error() string { return "deltalog: " + e.Msg }

func formatErrf(format string, args ...interface{}) error {
	return &FormatError{Msg: fmt.Sprintf(format, args...)}
}

func applyErrf(format string, args ...interface{}) error {
	return &ApplyError{Msg: fmt.Sprintf(format, args...)}
}

// Decode parses and validates one mutation body for the given op — the
// mutation trust boundary. Structure is validated unconditionally (IDs
// non-empty, weights and counts positive finite, payload matching the op
// and non-empty); lim bounds what a single mutation may carry, with limit
// breaches reported as *hin.LimitError so servers answer 413, and
// everything else as *FormatError (400). Semantic validation against the
// target network happens in Apply.
func Decode(op Op, data []byte, lim hin.Limits) (*Mutation, error) {
	m := &Mutation{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, formatErrf("parse mutation: %v", err)
	}
	if m.Op != "" && m.Op != op {
		return nil, formatErrf("document op %q does not match endpoint op %q", m.Op, op)
	}
	m.Op = op
	if err := m.validate(lim); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeRecord parses and validates one logged mutation record, using the
// record's own op discriminator. Replay and fuzzing go through it.
func DecodeRecord(data []byte, lim hin.Limits) (*Mutation, error) {
	m := &Mutation{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, formatErrf("parse mutation record: %v", err)
	}
	switch m.Op {
	case OpEdges, OpObjects, OpAttributes:
	default:
		return nil, formatErrf("unknown mutation op %q", m.Op)
	}
	if err := m.validate(lim); err != nil {
		return nil, err
	}
	return m, nil
}

// Encode serializes the mutation as a log record payload; DecodeRecord
// reverses it.
func (m *Mutation) Encode() ([]byte, error) {
	return json.Marshal(m)
}

// validate runs the op-specific structural checks and limit bounds.
func (m *Mutation) validate(lim hin.Limits) error {
	switch m.Op {
	case OpEdges:
		if len(m.Objects) != 0 || len(m.Links) != 0 || len(m.Set) != 0 {
			return formatErrf("edges mutation carries non-edges fields")
		}
		if len(m.Add) == 0 && len(m.Remove) == 0 {
			return formatErrf("edges mutation adds and removes nothing")
		}
		if lim.MaxLinks > 0 && len(m.Add)+len(m.Remove) > lim.MaxLinks {
			return &hin.LimitError{Dimension: "links", Got: len(m.Add) + len(m.Remove), Max: lim.MaxLinks}
		}
		if err := validLinks("add", m.Add); err != nil {
			return err
		}
		for i, ref := range m.Remove {
			if ref.From == "" || ref.To == "" || ref.Relation == "" {
				return formatErrf("remove[%d]: from, to and rel must be non-empty", i)
			}
		}
	case OpObjects:
		if len(m.Add) != 0 || len(m.Remove) != 0 || len(m.Set) != 0 {
			return formatErrf("objects mutation carries non-objects fields")
		}
		if len(m.Objects) == 0 {
			return formatErrf("objects mutation adds no objects")
		}
		if lim.MaxObjects > 0 && len(m.Objects) > lim.MaxObjects {
			return &hin.LimitError{Dimension: "objects", Got: len(m.Objects), Max: lim.MaxObjects}
		}
		if lim.MaxLinks > 0 && len(m.Links) > lim.MaxLinks {
			return &hin.LimitError{Dimension: "links", Got: len(m.Links), Max: lim.MaxLinks}
		}
		if err := validLinks("links", m.Links); err != nil {
			return err
		}
		seen := make(map[string]bool, len(m.Objects))
		var obs int
		for i, o := range m.Objects {
			if o.ID == "" {
				return formatErrf("objects[%d]: id must be non-empty", i)
			}
			if o.Type == "" {
				return formatErrf("objects[%d] (%q): type must be non-empty", i, o.ID)
			}
			if seen[o.ID] {
				return formatErrf("objects[%d]: duplicate id %q", i, o.ID)
			}
			seen[o.ID] = true
			n, err := validObs(fmt.Sprintf("objects[%d] (%q)", i, o.ID), o.Terms, o.Numeric, lim)
			if err != nil {
				return err
			}
			obs += n
			if lim.MaxObservations > 0 && obs > lim.MaxObservations {
				return &hin.LimitError{Dimension: "observations", Got: obs, Max: lim.MaxObservations}
			}
		}
	case OpAttributes:
		if len(m.Add) != 0 || len(m.Remove) != 0 || len(m.Objects) != 0 || len(m.Links) != 0 {
			return formatErrf("attributes mutation carries non-attributes fields")
		}
		if len(m.Set) == 0 {
			return formatErrf("attributes mutation patches nothing")
		}
		if lim.MaxObjects > 0 && len(m.Set) > lim.MaxObjects {
			return &hin.LimitError{Dimension: "objects", Got: len(m.Set), Max: lim.MaxObjects}
		}
		seen := make(map[string]bool, len(m.Set))
		var obs int
		for i, p := range m.Set {
			if p.ID == "" {
				return formatErrf("set[%d]: id must be non-empty", i)
			}
			if seen[p.ID] {
				return formatErrf("set[%d]: duplicate id %q", i, p.ID)
			}
			seen[p.ID] = true
			if len(p.Terms) == 0 && len(p.Numeric) == 0 {
				return formatErrf("set[%d] (%q): patch names no attributes", i, p.ID)
			}
			n, err := validObs(fmt.Sprintf("set[%d] (%q)", i, p.ID), p.Terms, p.Numeric, lim)
			if err != nil {
				return err
			}
			obs += n
			if lim.MaxObservations > 0 && obs > lim.MaxObservations {
				return &hin.LimitError{Dimension: "observations", Got: obs, Max: lim.MaxObservations}
			}
		}
	default:
		return formatErrf("unknown mutation op %q", m.Op)
	}
	return nil
}

// validLinks checks link structure: non-empty endpoints and relation,
// positive finite weight.
func validLinks(what string, links []Link) error {
	for i, l := range links {
		if l.From == "" || l.To == "" || l.Relation == "" {
			return formatErrf("%s[%d]: from, to and rel must be non-empty", what, i)
		}
		if !(l.Weight > 0) || math.IsInf(l.Weight, 0) || math.IsNaN(l.Weight) {
			return formatErrf("%s[%d] (%s -[%s]-> %s): weight %v must be positive finite", what, i, l.From, l.Relation, l.To, l.Weight)
		}
	}
	return nil
}

// validObs checks one object's observation maps: attribute names non-empty,
// the same attribute not both categorical and numeric, term indices inside
// [0, MaxVocab), counts positive finite, values finite. It returns the
// number of observation entries for the caller's MaxObservations budget.
func validObs(what string, terms map[string][]TermCount, numeric map[string][]float64, lim hin.Limits) (int, error) {
	var obs int
	for attr, tcs := range terms {
		if attr == "" {
			return 0, formatErrf("%s: empty attribute name", what)
		}
		if _, dup := numeric[attr]; dup {
			return 0, formatErrf("%s: attribute %q is both categorical and numeric", what, attr)
		}
		for _, tc := range tcs {
			if tc.Term < 0 {
				return 0, formatErrf("%s: attribute %q term %d is negative", what, attr, tc.Term)
			}
			if lim.MaxVocab > 0 && tc.Term >= lim.MaxVocab {
				return 0, &hin.LimitError{Dimension: "vocabulary", Got: tc.Term + 1, Max: lim.MaxVocab}
			}
			if !(tc.Count > 0) || math.IsInf(tc.Count, 0) || math.IsNaN(tc.Count) {
				return 0, formatErrf("%s: attribute %q count %v must be positive finite", what, attr, tc.Count)
			}
		}
		obs += len(tcs)
	}
	for attr, xs := range numeric {
		if attr == "" {
			return 0, formatErrf("%s: empty attribute name", what)
		}
		for _, x := range xs {
			if math.IsInf(x, 0) || math.IsNaN(x) {
				return 0, formatErrf("%s: attribute %q value %v must be finite", what, attr, x)
			}
		}
		obs += len(xs)
	}
	return obs, nil
}
