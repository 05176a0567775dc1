package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

	"genclus/internal/core"
	"genclus/internal/hin"
)

// Decode parses a version-1 snapshot from data behind the given limits; see
// Read for the contract.
func Decode(data []byte, lim Limits) (*Snapshot, error) {
	return Read(bytes.NewReader(data), lim)
}

// Read streams a version-1 snapshot out of r behind the given limits.
// Malformed input — wrong magic, truncated sections, inconsistent counts,
// out-of-domain floats, a checksum mismatch, or trailing bytes — fails with
// *FormatError; a declared dimension above a limit fails with *LimitError.
// Either way the decoder never panics, and every buffer grows incrementally
// while bytes arrive, so the memory a hostile input can claim is
// proportional to the bytes it actually supplies, not to the dimensions it
// declares.
//
// Read accepts exactly the canonical encoding Write produces (minimal
// varints, sorted maps, pinned flags): for every accepted input,
// re-encoding the result reproduces the input byte for byte. That is what
// lets the model registry treat a snapshot's bytes and its digest as
// interchangeable identities for the model.
func Read(r io.Reader, lim Limits) (*Snapshot, error) {
	d := &decoder{r: bufio.NewReader(r), crc: crc32.New(castagnoli), lim: lim}

	var hdr [8]byte
	if err := d.full(hdr[:]); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != Magic {
		return nil, d.badf("bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return nil, d.badf("unsupported version %d (decoder speaks %d)", v, Version)
	}
	flags := binary.LittleEndian.Uint16(hdr[6:8])
	if unknown := flags &^ FlagFloat32; unknown != 0 {
		return nil, d.badf("unknown flags %#x", unknown)
	}
	d.f32 = flags&FlagFloat32 != 0
	prec := core.PrecisionFloat64
	if d.f32 {
		prec = core.PrecisionFloat32
	}

	nMeta, err := d.count("meta", d.lim.MaxMetaPairs)
	if err != nil {
		return nil, err
	}
	var meta map[string]string
	prevKey := ""
	for i := 0; i < nMeta; i++ {
		key, err := d.str()
		if err != nil {
			return nil, err
		}
		if i > 0 && key <= prevKey {
			return nil, d.badf("meta key %q out of order (non-canonical encoding)", key)
		}
		prevKey = key
		val, err := d.str()
		if err != nil {
			return nil, err
		}
		if meta == nil {
			meta = make(map[string]string, nMeta)
		}
		meta[key] = val
	}

	k, err := d.count("clusters", d.lim.MaxK)
	if err != nil {
		return nil, err
	}
	if k < 2 {
		return nil, d.badf("K=%d, want ≥ 2", k)
	}
	nObj, err := d.count("objects", d.lim.MaxObjects)
	if err != nil {
		return nil, err
	}
	// Guard the Θ element count as a product: count() bounds each
	// dimension at MaxInt32, but nObj*k could still overflow a 32-bit int
	// (and a ~2³¹-float Θ is beyond any model this library can fit anyway).
	if int64(nObj)*int64(k) > math.MaxInt32 {
		return nil, d.badf("Theta dimensions %d×%d are unreasonable", nObj, k)
	}
	ids := make([]string, 0, capHint(nObj))
	for i := 0; i < nObj; i++ {
		id, err := d.str()
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	backing, err := d.floats(nObj * k)
	if err != nil {
		return nil, err
	}
	for _, x := range backing {
		if !finiteNonNeg(x) {
			return nil, d.badf("Theta entry %v outside [0, ∞)", x)
		}
	}
	theta := make([][]float64, nObj)
	for v := 0; v < nObj; v++ {
		theta[v] = backing[v*k : (v+1)*k]
	}

	nRel, err := d.count("relations", d.lim.MaxRelations)
	if err != nil {
		return nil, err
	}
	gamma := make(map[string]float64, nRel)
	prevName := ""
	for i := 0; i < nRel; i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		if i > 0 && name <= prevName {
			return nil, d.badf("relation %q out of order (non-canonical encoding)", name)
		}
		prevName = name
		g, err := d.fp()
		if err != nil {
			return nil, err
		}
		if !finiteNonNeg(g) {
			return nil, d.badf("strength %q = %v outside [0, ∞)", name, g)
		}
		gamma[name] = g
	}
	nVec, err := d.count("relations", d.lim.MaxRelations)
	if err != nil {
		return nil, err
	}
	if nVec != 0 && nVec != nRel {
		return nil, d.badf("dense strength vector has %d entries for %d relations", nVec, nRel)
	}
	var gammaVec []float64
	if nVec > 0 {
		if gammaVec, err = d.floats(nVec); err != nil {
			return nil, err
		}
		for _, g := range gammaVec {
			if !finiteNonNeg(g) {
				return nil, d.badf("dense strength %v outside [0, ∞)", g)
			}
		}
	}

	nAttr, err := d.count("attributes", d.lim.MaxAttributes)
	if err != nil {
		return nil, err
	}
	attrs := make([]core.AttrModel, 0, capHint(nAttr))
	for i := 0; i < nAttr; i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		kind, err := d.byte1()
		if err != nil {
			return nil, err
		}
		am := core.AttrModel{Name: name}
		switch kind {
		case wireCategorical:
			am.Kind = hin.Categorical
			beta := make([][]float64, k)
			for c := 0; c < k; c++ {
				vocab, err := d.count("vocabulary", d.lim.MaxVocab)
				if err != nil {
					return nil, err
				}
				row, err := d.floats(vocab)
				if err != nil {
					return nil, err
				}
				for _, x := range row {
					if !finiteNonNeg(x) {
						return nil, d.badf("attribute %q probability %v outside [0, ∞)", name, x)
					}
				}
				beta[c] = row
			}
			am.Cat = &core.CatParams{Beta: beta}
		case wireNumeric:
			am.Kind = hin.Numeric
			mu, err := d.floats(k)
			if err != nil {
				return nil, err
			}
			vars, err := d.floats(k)
			if err != nil {
				return nil, err
			}
			for c := 0; c < k; c++ {
				if math.IsNaN(mu[c]) || math.IsInf(mu[c], 0) {
					return nil, d.badf("attribute %q mean %v not finite", name, mu[c])
				}
				if v := vars[c]; !(v > 0) || math.IsInf(v, 0) {
					return nil, d.badf("attribute %q variance %v outside (0, ∞)", name, v)
				}
			}
			am.Gauss = &core.GaussParams{Mu: mu, Var: vars}
		default:
			return nil, d.badf("unknown attribute kind byte %d", kind)
		}
		attrs = append(attrs, am)
	}

	objective, err := d.f64()
	if err != nil {
		return nil, err
	}
	pseudoLL, err := d.f64()
	if err != nil {
		return nil, err
	}
	emIters, err := d.count("iterations", 0)
	if err != nil {
		return nil, err
	}
	outerIters, err := d.count("iterations", 0)
	if err != nil {
		return nil, err
	}

	want := d.crc.Sum32()
	var foot [4]byte
	if err := d.fullUnhashed(foot[:]); err != nil {
		return nil, err
	}
	if got := binary.LittleEndian.Uint32(foot[:]); got != want {
		return nil, d.badf("checksum mismatch: stored %08x, computed %08x", got, want)
	}
	var one [1]byte
	if err := d.fullUnhashed(one[:]); err == nil {
		return nil, d.badf("trailing bytes after checksum")
	}

	res := &core.Result{
		K:               k,
		Theta:           theta,
		Gamma:           gamma,
		GammaVec:        gammaVec,
		Attrs:           attrs,
		Objective:       objective,
		PseudoLL:        pseudoLL,
		EMIterations:    emIters,
		OuterIterations: outerIters,
		Precision:       prec,
		Epsilon:         epsilonFromMeta(meta, k),
	}
	model, err := core.NewModel(res, ids)
	if err != nil {
		return nil, d.badf("reassemble model: %v", err)
	}
	return &Snapshot{Model: model, Meta: meta}, nil
}

// msgTruncated is the FormatError message for inputs that end mid-section.
const msgTruncated = "truncated input"

// decoder reads primitives off a buffered stream, feeding every consumed
// byte (except the checksum footer) through the running CRC and tracking
// the byte offset for error reports.
type decoder struct {
	r   *bufio.Reader
	crc hash.Hash32
	off int64
	lim Limits
	f32 bool // FlagFloat32 set: model floats are 4-byte on the wire
}

func (d *decoder) badf(format string, args ...any) error {
	return &FormatError{Offset: d.off, Msg: fmt.Sprintf(format, args...)}
}

// full reads exactly len(p) bytes and hashes them.
func (d *decoder) full(p []byte) error {
	if err := d.fullUnhashed(p); err != nil {
		return err
	}
	d.crc.Write(p)
	return nil
}

// fullUnhashed reads exactly len(p) bytes without touching the CRC (used
// for the checksum footer itself and the trailing-bytes probe).
func (d *decoder) fullUnhashed(p []byte) error {
	n, err := io.ReadFull(d.r, p)
	d.off += int64(n)
	if err != nil {
		return &FormatError{Offset: d.off, Msg: msgTruncated}
	}
	return nil
}

// byte1 reads a single hashed byte.
func (d *decoder) byte1() (byte, error) {
	var p [1]byte
	if err := d.full(p[:]); err != nil {
		return 0, err
	}
	return p[0], nil
}

// uvarint reads a canonical (minimal-length) unsigned varint. Non-minimal
// encodings are rejected: they would re-encode differently and break the
// bytes-are-identity contract.
func (d *decoder) uvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := d.byte1()
		if err != nil {
			return 0, err
		}
		if i == binary.MaxVarintLen64-1 && b > 1 {
			return 0, d.badf("varint overflows 64 bits")
		}
		if b < 0x80 {
			if i > 0 && b == 0 {
				return 0, d.badf("non-minimal varint encoding")
			}
			return x | uint64(b)<<s, nil
		}
		if i == binary.MaxVarintLen64-1 {
			return 0, d.badf("varint overflows 64 bits")
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// count reads a uvarint meant to be a dimension: it must fit in int and,
// when max > 0, stay within it.
func (d *decoder) count(dimension string, max int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		// Even "unlimited" dimensions get a sanity ceiling far above any
		// real model, so downstream int arithmetic cannot overflow.
		return 0, d.badf("declared %s count %d is unreasonable", dimension, v)
	}
	n := int(v)
	if max > 0 && n > max {
		return 0, &LimitError{Dimension: dimension, Got: n, Max: max}
	}
	return n, nil
}

// str reads a length-prefixed string, growing its buffer incrementally so
// a huge declared length costs no more memory than the bytes that follow.
func (d *decoder) str() (string, error) {
	n, err := d.count("string", d.lim.MaxStringLen)
	if err != nil {
		return "", err
	}
	out := make([]byte, 0, capHint(n))
	var chunk [512]byte
	for n > 0 {
		c := n
		if c > len(chunk) {
			c = len(chunk)
		}
		if err := d.full(chunk[:c]); err != nil {
			return "", err
		}
		out = append(out, chunk[:c]...)
		n -= c
	}
	return string(out), nil
}

// floats reads n model floats at the snapshot's storage width (float32
// widens exactly into float64), growing the slice incrementally (memory
// tracks bytes read, not the declared count).
func (d *decoder) floats(n int) ([]float64, error) {
	out := make([]float64, 0, capHint(n))
	var chunk [4096]byte
	if d.f32 {
		for n > 0 {
			c := n
			if c > len(chunk)/4 {
				c = len(chunk) / 4
			}
			if err := d.full(chunk[:c*4]); err != nil {
				return nil, err
			}
			for i := 0; i < c*4; i += 4 {
				out = append(out, float64(math.Float32frombits(binary.LittleEndian.Uint32(chunk[i:i+4]))))
			}
			n -= c
		}
		return out, nil
	}
	for n > 0 {
		c := n
		if c > len(chunk)/8 {
			c = len(chunk) / 8
		}
		if err := d.full(chunk[:c*8]); err != nil {
			return nil, err
		}
		for i := 0; i < c*8; i += 8 {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(chunk[i:i+8])))
		}
		n -= c
	}
	return out, nil
}

// f64 reads one raw little-endian float64.
func (d *decoder) f64() (float64, error) {
	var p [8]byte
	if err := d.full(p[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p[:])), nil
}

// fp reads one model float at the snapshot's storage width.
func (d *decoder) fp() (float64, error) {
	if !d.f32 {
		return d.f64()
	}
	var p [4]byte
	if err := d.full(p[:]); err != nil {
		return 0, err
	}
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(p[:]))), nil
}

// capHint bounds the initial capacity of a declared-size allocation: real
// inputs of that size still amortize, hostile declarations get nothing up
// front.
func capHint(n int) int {
	const max = 4096
	if n > max {
		return max
	}
	return n
}
