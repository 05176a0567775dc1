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
	"maps"
	"math"
	"slices"

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
// Link, TermCount and Object are the network document's elements,
// declared once in package hin.

// Link is one link to add: object IDs, a relation name (which may be new
// to the network) and a positive finite weight.
type Link = hin.LinkDoc

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
type TermCount = hin.TermCount

// Object is one object to add: an ID new to the network, a type, and
// optional attribute observations keyed by declared attribute name.
type Object = hin.ObjectDoc

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
// everything else as *FormatError (400), in a fixed order: parse errors
// (a repeated recognised key among them, see parse), the op, then
// validate's checks, which walk attributes in name order. Semantic
// validation against the target network happens in Apply.
func Decode(op Op, data []byte, lim hin.Limits) (*Mutation, error) {
	m, err := parse(data)
	if err != nil {
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
// record's own op discriminator (validate rejects an unknown op first).
// Replay and fuzzing go through it.
func DecodeRecord(data []byte, lim hin.Limits) (*Mutation, error) {
	m, err := parse(data)
	if err != nil {
		return nil, formatErrf("parse mutation record: %v", err)
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
	var own int // the size of the op's own payload
	switch m.Op {
	case OpEdges:
		own = len(m.Add) + len(m.Remove)
	case OpObjects:
		own = len(m.Objects) + len(m.Links)
	case OpAttributes:
		own = len(m.Set)
	default:
		return formatErrf("unknown mutation op %q", m.Op)
	}
	if len(m.Add)+len(m.Remove)+len(m.Objects)+len(m.Links)+len(m.Set) != own {
		return formatErrf("%s mutation carries non-%[1]s fields", m.Op)
	}
	seen := make(map[string]bool, len(m.Objects)+len(m.Set))
	var obs int // observations so far, against MaxObservations
	switch m.Op {
	case OpEdges:
		if own == 0 {
			return formatErrf("edges mutation adds and removes nothing")
		}
		if lim.MaxLinks > 0 && own > lim.MaxLinks {
			return &hin.LimitError{Dimension: "links", Got: own, Max: lim.MaxLinks}
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
			if err := validObs(fmt.Sprintf("objects[%d] (%q)", i, o.ID), o.Terms, o.Numeric, lim, &obs); err != nil {
				return err
			}
		}
	case OpAttributes:
		if len(m.Set) == 0 {
			return formatErrf("attributes mutation patches nothing")
		}
		if lim.MaxObjects > 0 && len(m.Set) > lim.MaxObjects {
			return &hin.LimitError{Dimension: "objects", Got: len(m.Set), Max: lim.MaxObjects}
		}
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
			if err := validObs(fmt.Sprintf("set[%d] (%q)", i, p.ID), p.Terms, p.Numeric, lim, &obs); err != nil {
				return err
			}
		}
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
// [0, MaxVocab), counts positive finite, values finite. It walks each map
// in attribute name order, so the error it returns is a function of the
// document. It adds the object's observation entries to *obs, the
// mutation's running total, and checks it against MaxObservations.
func validObs(what string, terms map[string][]TermCount, numeric map[string][]float64, lim hin.Limits, obs *int) error {
	for _, attr := range slices.Sorted(maps.Keys(terms)) {
		tcs := terms[attr]
		if attr == "" {
			return formatErrf("%s: empty attribute name", what)
		}
		if _, dup := numeric[attr]; dup {
			return formatErrf("%s: attribute %q is both categorical and numeric", what, attr)
		}
		for _, tc := range tcs {
			if tc.Term < 0 {
				return formatErrf("%s: attribute %q term %d is negative", what, attr, tc.Term)
			}
			if lim.MaxVocab > 0 && tc.Term >= lim.MaxVocab {
				return &hin.LimitError{Dimension: "vocabulary", Got: tc.Term + 1, Max: lim.MaxVocab}
			}
			if !(tc.Count > 0) || math.IsInf(tc.Count, 0) || math.IsNaN(tc.Count) {
				return formatErrf("%s: attribute %q count %v must be positive finite", what, attr, tc.Count)
			}
		}
		*obs += len(tcs)
	}
	for _, attr := range slices.Sorted(maps.Keys(numeric)) {
		xs := numeric[attr]
		if attr == "" {
			return formatErrf("%s: empty attribute name", what)
		}
		for _, x := range xs {
			if math.IsInf(x, 0) || math.IsNaN(x) {
				return formatErrf("%s: attribute %q value %v must be finite", what, attr, x)
			}
		}
		*obs += len(xs)
	}
	if lim.MaxObservations > 0 && *obs > lim.MaxObservations {
		return &hin.LimitError{Dimension: "observations", Got: *obs, Max: lim.MaxObservations}
	}
	return nil
}
