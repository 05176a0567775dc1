// Package snapshot is the versioned binary codec for fitted GenClus models.
// It serializes a core.Model — Θ, the learned relation strengths γ, the
// fitted attribute component models, the objective values and iteration
// counts — plus a small sorted metadata map (origin job, options digest)
// into a self-checksummed, length-prefixed byte stream, and decodes it back
// behind resource limits so untrusted snapshot uploads cannot force large
// allocations or panics.
//
// The format is the persistence and portability substrate of the system: the
// genclusd daemon writes one snapshot per finished fit into its -data-dir
// (and recovers them at startup), the /v1/models registry exports and
// imports them over HTTP, and the genclus CLI reads and writes the same
// bytes — so a model fitted anywhere warm-starts a refit anywhere else.
//
// # Wire format (version 1)
//
// All integers are unsigned varints (binary.PutUvarint) except where noted;
// floats are raw IEEE-754 bits, little-endian; strings are a uvarint byte
// length followed by the bytes. Sections appear in this fixed order:
//
//	magic   "GCSN" (4 bytes)
//	version uint16 LE (currently 1), flags uint16 LE
//	meta    count, then (key, value) string pairs, keys strictly ascending
//	k       cluster count
//	objects count n, then n object-ID strings (Θ row order)
//	theta   n×k model floats
//	gamma   count r, then (relation name, model float) pairs, names ascending
//	gvec    count m (0 or r), then m model floats (dense-order γ, when retained)
//	attrs   count, then per attribute: name, kind byte (0 categorical,
//	        1 numeric); categorical: k rows of (vocab length, model floats);
//	        numeric: k means then k variances (model floats)
//	scalars objective float64, pseudo-LL float64, EM iterations, outer
//	        iterations
//	crc     uint32 LE CRC-32C (Castagnoli) of every preceding byte
//
// "Model floats" — Θ, γ, and the attribute component parameters — are raw
// IEEE-754 float64 bits by default. When the FlagFloat32 flags bit is set
// (the additive format extension for models fitted with
// Options.Precision = "float32") they are raw float32 bits instead, halving
// the payload; the two scalar objectives always stay float64. Any other
// flags bit is unknown and rejected, which is exactly how pre-extension
// decoders refuse float32 snapshots (typed *FormatError, never a misread) —
// while flags-zero snapshots decode unchanged as float64. The fitted state
// of a float32 fit is float32-representable by construction, so narrowing
// on encode loses nothing and decode→encode reproduces the bytes.
//
// Encoding is deterministic (maps are sorted, floats are exact bits), and
// the decoder rejects any input whose re-encoding would differ — so
// Encode(must(Decode(b))) == b for every accepted b, which is what lets the
// registry serve a stored snapshot's digest without re-reading the file.
// Result.History is deliberately not persisted: it is a debugging artifact
// proportional to the iteration count, not fitted state a refit consumes.
package snapshot

import (
	"fmt"

	"genclus/internal/core"
)

// Magic is the 4-byte signature every snapshot starts with.
const Magic = "GCSN"

// Version is the current wire-format version. Decoders reject newer
// versions (forward compatibility is a re-fit away; silent misreads are
// not).
const Version = 1

// FlagFloat32 marks a snapshot whose model floats are stored as raw
// float32 bits (fitted under Options.Precision = "float32"). Decoders that
// predate the extension reject the bit as unknown flags; every other flags
// bit remains reserved and rejected.
const FlagFloat32 uint16 = 0x1

// Snapshot pairs a fitted model with the metadata recorded at export time.
type Snapshot struct {
	// Model is the fitted model: Θ, γ, attribute component models,
	// objectives and iteration counts, plus the source network's object IDs
	// in Θ row order. Result.History is not carried across the codec.
	// Result.Precision selects the storage width of the model floats on
	// the wire: float64 (or empty) writes the flags-zero layout, float32
	// sets FlagFloat32 and writes float32 payloads. Decode fills it from
	// the flags word, so re-encoding a decoded snapshot reproduces its
	// bytes. Result.Epsilon is not on the wire: Decode fills it from the
	// MetaEpsilon key when present and valid.
	Model *core.Model
	// Meta is a small string map for provenance — the genclusd persister
	// records the source job id, network id, finish time, and the options
	// digest here. Keys are sorted on encode; nil and empty are equivalent.
	Meta map[string]string
}

// Limits bounds what a decoded snapshot may allocate, in the same spirit as
// hin.Limits at the network-upload trust boundary. A zero field means "no
// limit" on that dimension. The decoder additionally grows every buffer
// incrementally while reading, so even within the limits a truncated or
// hostile input can only consume memory proportional to the bytes actually
// supplied.
type Limits struct {
	MaxObjects    int // Θ rows (and object IDs)
	MaxK          int // clusters (Θ columns, attribute components)
	MaxRelations  int // learned strengths
	MaxAttributes int // fitted attribute models
	MaxVocab      int // categorical component vocabulary length
	MaxMetaPairs  int // metadata entries
	MaxStringLen  int // any single string (ids, names, meta keys/values)
}

// DefaultLimits is the bound recovery and the CLI use: generous enough for
// any model this library can fit in memory, tight enough that a small
// hostile file cannot claim giant dimensions. genclusd derives stricter
// import limits from its own upload configuration.
func DefaultLimits() Limits {
	return Limits{
		MaxObjects:    50_000_000,
		MaxK:          65_536,
		MaxRelations:  65_536,
		MaxAttributes: 4096,
		MaxVocab:      50_000_000,
		MaxMetaPairs:  256,
		MaxStringLen:  65_536,
	}
}

// FormatError reports a snapshot rejected as malformed — wrong magic, a
// truncated section, an inconsistent count, a checksum mismatch, or a float
// outside the model's domain. Offset is the byte position the decoder had
// reached.
type FormatError struct {
	Offset int64  // byte offset where decoding failed
	Msg    string // what was wrong
}

// Error implements the error interface.
func (e *FormatError) Error() string {
	return fmt.Sprintf("snapshot: offset %d: %s", e.Offset, e.Msg)
}

// LimitError reports a snapshot rejected because a declared dimension
// exceeds a Limits bound — errors.As-distinguishable from FormatError so
// servers can answer 413 instead of 400.
type LimitError struct {
	Dimension string // "objects", "clusters", "relations", "attributes", "vocabulary", "meta", "string"
	Got, Max  int    // declared size and the bound it exceeded
}

// Error implements the error interface.
func (e *LimitError) Error() string {
	return fmt.Sprintf("snapshot: %d %s exceeds limit %d", e.Got, e.Dimension, e.Max)
}
