package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"genclus/internal/core"
	"genclus/internal/hin"
)

// castagnoli is the CRC-32C table shared by encoder and decoder.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// attribute kind bytes on the wire (pinned independently of hin's iota so a
// reordering there cannot silently change the format).
const (
	wireCategorical = 0
	wireNumeric     = 1
)

// Encode serializes the snapshot into the version-1 wire format. The output
// is deterministic: metadata and strength maps are emitted in sorted key
// order and floats as exact bits, so encoding the same fitted state twice
// yields byte-identical output (the property the model registry's digests
// rely on). Encode validates the model first and fails on state the decoder
// would reject — a snapshot written here always reads back.
func Encode(snap *Snapshot) ([]byte, error) {
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Write streams the version-1 encoding of the snapshot to w; see Encode.
func Write(w io.Writer, snap *Snapshot) error {
	if snap == nil || snap.Model == nil {
		return fmt.Errorf("snapshot: encode nil model")
	}
	if snap.Model.Result == nil {
		return fmt.Errorf("snapshot: encode model with nil Result")
	}
	prec, err := core.ParsePrecision(string(snap.Model.Precision))
	if err != nil {
		return fmt.Errorf("snapshot: encode: %w", err)
	}
	f32 := prec == core.PrecisionFloat32
	if err := validateForEncode(snap.Model, f32); err != nil {
		return err
	}
	var body bytes.Buffer
	e := &encoder{w: &body, f32: f32}

	body.WriteString(Magic)
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:2], Version)
	var flags uint16
	if f32 {
		flags |= FlagFloat32
	}
	binary.LittleEndian.PutUint16(hdr[2:4], flags)
	body.Write(hdr[:])

	metaKeys := make([]string, 0, len(snap.Meta))
	for k := range snap.Meta {
		metaKeys = append(metaKeys, k)
	}
	sort.Strings(metaKeys)
	e.uvarint(uint64(len(metaKeys)))
	for _, k := range metaKeys {
		e.str(k)
		e.str(snap.Meta[k])
	}

	m := snap.Model
	res := m.Result
	ids := m.ObjectIDs()
	e.uvarint(uint64(res.K))
	e.uvarint(uint64(len(ids)))
	for _, id := range ids {
		e.str(id)
	}
	for _, row := range res.Theta {
		for _, x := range row {
			e.fp(x)
		}
	}

	relNames := make([]string, 0, len(res.Gamma))
	for name := range res.Gamma {
		relNames = append(relNames, name)
	}
	sort.Strings(relNames)
	e.uvarint(uint64(len(relNames)))
	for _, name := range relNames {
		e.str(name)
		e.fp(res.Gamma[name])
	}
	e.uvarint(uint64(len(res.GammaVec)))
	for _, g := range res.GammaVec {
		e.fp(g)
	}

	e.uvarint(uint64(len(res.Attrs)))
	for _, am := range res.Attrs {
		e.str(am.Name)
		switch am.Kind {
		case hin.Categorical:
			e.b(wireCategorical)
			for _, row := range am.Cat.Beta {
				e.uvarint(uint64(len(row)))
				for _, x := range row {
					e.fp(x)
				}
			}
		case hin.Numeric:
			e.b(wireNumeric)
			for _, mu := range am.Gauss.Mu {
				e.fp(mu)
			}
			for _, v := range am.Gauss.Var {
				e.fp(v)
			}
		}
	}

	e.f64(res.Objective)
	e.f64(res.PseudoLL)
	e.uvarint(uint64(res.EMIterations))
	e.uvarint(uint64(res.OuterIterations))

	sum := crc32.Checksum(body.Bytes(), castagnoli)
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], sum)
	body.Write(foot[:])

	_, err = w.Write(body.Bytes())
	return err
}

// encoder writes primitives to an in-memory buffer (bytes.Buffer writes
// cannot fail, so the helpers carry no error returns). f32 selects the
// 4-byte storage width for model floats (fp); scalars written with f64 are
// unaffected.
type encoder struct {
	w   *bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
	f32 bool
}

func (e *encoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.tmp[:], v)
	e.w.Write(e.tmp[:n])
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.w.WriteString(s)
}

func (e *encoder) f64(x float64) {
	binary.LittleEndian.PutUint64(e.tmp[:8], math.Float64bits(x))
	e.w.Write(e.tmp[:8])
}

// fp writes one model float at the snapshot's storage width.
func (e *encoder) fp(x float64) {
	if e.f32 {
		binary.LittleEndian.PutUint32(e.tmp[:4], math.Float32bits(float32(x)))
		e.w.Write(e.tmp[:4])
		return
	}
	e.f64(x)
}

func (e *encoder) b(v byte) { e.w.WriteByte(v) }

// validateForEncode checks the model is within the format's domain so the
// encoder never emits bytes its own decoder rejects: consistent shapes
// (every Θ row and attribute component at K entries, GammaVec matching the
// strength map when present), finite non-negative memberships, strengths
// and term probabilities, and strictly positive variances. Under float32
// storage the variance check applies after narrowing — a float64 variance
// tiny enough to round to a float32 zero would otherwise decode as invalid
// (a float32 fit can't produce one, but Result.Precision is settable on
// any model).
func validateForEncode(m *core.Model, f32 bool) error {
	res := m.Result
	if res.K < 2 {
		return fmt.Errorf("snapshot: encode model with K=%d, want ≥ 2", res.K)
	}
	if len(m.ObjectIDs()) != len(res.Theta) {
		return fmt.Errorf("snapshot: %d object IDs for %d Theta rows", len(m.ObjectIDs()), len(res.Theta))
	}
	for v, row := range res.Theta {
		if len(row) != res.K {
			return fmt.Errorf("snapshot: Theta row %d has %d entries, want K=%d", v, len(row), res.K)
		}
		for _, x := range row {
			if !finiteNonNeg(x) || (f32 && !fitsF32(x)) {
				return fmt.Errorf("snapshot: Theta row %d has invalid entry %v", v, x)
			}
		}
	}
	for name, g := range res.Gamma {
		if !finiteNonNeg(g) || (f32 && !fitsF32(g)) {
			return fmt.Errorf("snapshot: strength %q = %v, want finite ≥ 0", name, g)
		}
	}
	if len(res.GammaVec) != 0 && len(res.GammaVec) != len(res.Gamma) {
		return fmt.Errorf("snapshot: GammaVec has %d entries for %d named strengths", len(res.GammaVec), len(res.Gamma))
	}
	for r, g := range res.GammaVec {
		if !finiteNonNeg(g) || (f32 && !fitsF32(g)) {
			return fmt.Errorf("snapshot: GammaVec[%d] = %v, want finite ≥ 0", r, g)
		}
	}
	for _, am := range res.Attrs {
		switch am.Kind {
		case hin.Categorical:
			if am.Cat == nil || len(am.Cat.Beta) != res.K {
				return fmt.Errorf("snapshot: attribute %q has %d categorical components, want K=%d", am.Name, catLen(am.Cat), res.K)
			}
			for k, row := range am.Cat.Beta {
				for _, x := range row {
					if !finiteNonNeg(x) || (f32 && !fitsF32(x)) {
						return fmt.Errorf("snapshot: attribute %q component %d has invalid probability %v", am.Name, k, x)
					}
				}
			}
		case hin.Numeric:
			if am.Gauss == nil || len(am.Gauss.Mu) != res.K || len(am.Gauss.Var) != res.K {
				return fmt.Errorf("snapshot: attribute %q has malformed Gaussian components, want K=%d", am.Name, res.K)
			}
			for k := 0; k < res.K; k++ {
				if mu := am.Gauss.Mu[k]; math.IsNaN(mu) || math.IsInf(mu, 0) || (f32 && !fitsF32(mu)) {
					return fmt.Errorf("snapshot: attribute %q component %d has invalid mean %v", am.Name, k, mu)
				}
				v := am.Gauss.Var[k]
				if !(v > 0) || math.IsInf(v, 0) {
					return fmt.Errorf("snapshot: attribute %q component %d has invalid variance %v", am.Name, k, v)
				}
				if f32 && !(float32(v) > 0) {
					return fmt.Errorf("snapshot: attribute %q component %d variance %v underflows float32 storage", am.Name, k, v)
				}
			}
		default:
			return fmt.Errorf("snapshot: attribute %q has unknown kind %v", am.Name, am.Kind)
		}
	}
	if res.EMIterations < 0 || res.OuterIterations < 0 {
		return fmt.Errorf("snapshot: negative iteration counts (%d, %d)", res.EMIterations, res.OuterIterations)
	}
	return nil
}

func finiteNonNeg(x float64) bool {
	return x >= 0 && !math.IsInf(x, 0) // NaN fails x >= 0
}

// fitsF32 reports whether narrowing x to float32 storage stays finite — a
// value a float32-precision fit can actually hold (it clamps at fit time;
// arbitrary models must be rejected rather than silently saturated).
func fitsF32(x float64) bool {
	return !math.IsInf(float64(float32(x)), 0)
}

func catLen(c *core.CatParams) int {
	if c == nil {
		return 0
	}
	return len(c.Beta)
}
