package hin

import (
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// decoder reads a network document in one pass over its bytes, with no
// reflection, and stages what it reads for a Builder. Its accept/reject
// decisions and the networks it builds are those of encoding/json decoding
// into the MarshalJSON structs, then Limits checks, then a Builder replay —
// except that a repeated recognised key is rejected (see FromJSONLimited).
type decoder struct {
	data []byte
	pos  int
	lim  Limits

	// Counts for the limit checks, and the first vocabulary and running
	// observation total past their bounds. full is set once any count has
	// passed its limit: the rest of the document is still validated, but
	// nothing more is stored.
	nObjects, nLinks, nAttrs int
	nObs                     int
	vocabOver, obsOver       int
	full                     bool

	strs map[string]string // raw string token → decoded string, for repeated tokens
	buf  []byte            // unquoting scratch for values
	kbuf []byte            // unquoting scratch for keys
	fbuf []byte            // folding scratch for keys
	keys keySet            // attribute names seen in one terms or numeric map

	attrs   []attrDecl
	objects []Object
	groups  []obsGroup
	tcs     stage[TermCount]
	nums    stage[float64]
	links   stage[linkSpan]
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

// span is a string token's contents between its quotes. slow marks a token
// holding an escape or a non-ASCII byte, which must be unquoted.
type span struct {
	start, end int
	slow       bool
}

type linkSpan struct {
	from, to, rel span
	w             float64
}

// maxDepth is encoding/json's nesting bound: a document nested deeper is
// malformed.
const maxDepth = 10000

// fieldSet is the field names of one wire struct, matched as encoding/json
// matches them: exactly first, then under its case fold.
type fieldSet struct {
	names, folded []string
}

func newFieldSet(names ...string) *fieldSet {
	fs := &fieldSet{names: names}
	for _, n := range names {
		fs.folded = append(fs.folded, string(appendFoldedName(nil, []byte(n))))
	}
	return fs
}

var (
	docFields  = newFieldSet("objects", "links", "attributes")
	objFields  = newFieldSet("id", "type", "terms", "numeric")
	termFields = newFieldSet("t", "c")
	linkFields = newFieldSet("from", "to", "rel", "w")
	attrFields = newFieldSet("name", "kind", "vocab")
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
			from, okF := b.idIndex[string(d.bytes(l.from))]
			to, okT := b.idIndex[string(d.bytes(l.to))]
			if !okF || !okT {
				b.fail("hin: link %s -[%s]-> %s references unknown object", d.text(l.from), d.intern(l.rel), d.text(l.to))
				continue
			}
			b.AddLinkByIndex(from, to, d.intern(l.rel), l.w)
		}
	}
	return b.Build()
}

// bytes returns a string token's decoded contents, valid until the next
// call. Map lookups keyed by string(d.bytes(s)) allocate nothing.
func (d *decoder) bytes(s span) []byte {
	raw := d.data[s.start:s.end]
	if !s.slow {
		return raw
	}
	d.buf = appendUnquoted(d.buf[:0], raw)
	return d.buf
}

// intern returns a string token's decoded contents as a string, decoding
// and allocating each distinct token once.
func (d *decoder) intern(s span) string {
	raw := d.data[s.start:s.end]
	if v, ok := d.strs[string(raw)]; ok {
		return v
	}
	v := string(raw)
	if s.slow {
		d.buf = appendUnquoted(d.buf[:0], raw)
		v = string(d.buf)
	}
	d.strs[string(raw)] = v
	return v
}

// text returns a string token's decoded contents as a fresh string.
func (d *decoder) text(s span) string { return string(d.bytes(s)) }

// ---- document structure -------------------------------------------------

func (d *decoder) document() error {
	d.skipSpace()
	if d.pos >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	switch d.data[d.pos] {
	case '{':
		d.pos++
		if err := d.docObject(); err != nil {
			return err
		}
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
	default:
		return d.mismatch("the network document", "an object")
	}
	d.skipSpace()
	if d.pos < len(d.data) {
		return d.syntax("after top-level value")
	}
	return nil
}

func (d *decoder) docObject() error {
	var seen uint
	for first := true; ; first = false {
		_, key, done, err := d.nextKey(first)
		if err != nil || done {
			return err
		}
		f := d.field(docFields, key)
		if err := d.once(&seen, f, key); err != nil {
			return err
		}
		switch f {
		case 0:
			err = d.array(2, "objects", d.objectElem)
		case 1:
			err = d.array(2, "links", d.linkElem)
		case 2:
			err = d.array(2, "attributes", d.attrElem)
		default:
			err = d.skipValue(1)
		}
		if err != nil {
			return err
		}
	}
}

// array reads a JSON array of wire structs (or null, meaning absent),
// calling elem once per element; depth is the array's nesting level.
func (d *decoder) array(depth int, what string, elem func(depth int, null bool) error) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '[':
	default:
		return d.mismatch(what, "an array")
	}
	d.pos++
	for first := true; ; first = false {
		done, err := d.nextElem(first)
		if err != nil || done {
			return err
		}
		switch d.peek() {
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
			err = elem(depth+1, true)
		case '{':
			d.pos++
			err = elem(depth+1, false)
		default:
			err = d.mismatch(what+" element", "an object")
		}
		if err != nil {
			return err
		}
	}
}

// objectElem reads one element of "objects"; null is the zero object.
func (d *decoder) objectElem(depth int, null bool) error {
	d.nObjects++
	d.checkCount(d.lim.MaxObjects, d.nObjects)
	obj := len(d.objects)
	var o Object
	if !null {
		var seen uint
		for first := true; ; first = false {
			_, key, done, err := d.nextKey(first)
			if err != nil {
				return err
			}
			if done {
				break
			}
			f := d.field(objFields, key)
			if err := d.once(&seen, f, key); err != nil {
				return err
			}
			switch f {
			case 0:
				var s span
				if s, err = d.stringValue("id"); err == nil && !d.full {
					o.ID = d.text(s)
				}
			case 1:
				var s span
				if s, err = d.stringValue("type"); err == nil && !d.full {
					o.Type = d.intern(s)
				}
			case 2:
				err = d.obsMap(depth+1, obj, false)
			case 3:
				err = d.obsMap(depth+1, obj, true)
			default:
				err = d.skipValue(depth)
			}
			if err != nil {
				return err
			}
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

// obsMap reads an object's "terms" or "numeric" map (null is absent),
// staging each entry as a group of object obj.
func (d *decoder) obsMap(depth, obj int, numeric bool) error {
	what := "terms"
	if numeric {
		what = "numeric"
	}
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch(what, "an object")
	}
	d.pos++
	d.keys.reset()
	for first := true; ; first = false {
		ks, _, done, err := d.nextKey(first)
		if err != nil || done {
			return err
		}
		attr := d.intern(ks)
		if !d.keys.add(attr) {
			return fmt.Errorf("repeated attribute %q in %s at offset %d", attr, what, d.pos)
		}
		switch d.peek() {
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
			continue
		case '[':
			d.pos++
		default:
			return d.mismatch(what+" value", "an array")
		}
		g := obsGroup{obj: obj, attr: attr}
		if numeric {
			err = d.numList()
			g.nums = d.nums.run()
		} else {
			err = d.termList(depth + 2)
			g.tcs = d.tcs.run()
		}
		if err != nil {
			return err
		}
		if !d.full && (len(g.nums) > 0 || len(g.tcs) > 0) {
			d.groups = append(d.groups, g)
		}
	}
}

// termList reads the elements of a term-count list after its '['; depth
// is the nesting level of each {"t","c"} element.
func (d *decoder) termList(depth int) error {
	for first := true; ; first = false {
		done, err := d.nextElem(first)
		if err != nil || done {
			return err
		}
		var tc TermCount
		switch d.peek() {
		case 'n':
			err = d.literal("null")
		case '{':
			d.pos++
			tc, err = d.termCount(depth)
		default:
			err = d.mismatch("term count", "an object")
		}
		if err != nil {
			return err
		}
		d.addObs()
		if !d.full {
			d.tcs.push(tc)
		}
	}
}

func (d *decoder) termCount(depth int) (TermCount, error) {
	var tc TermCount
	var seen uint
	for first := true; ; first = false {
		_, key, done, err := d.nextKey(first)
		if err != nil || done {
			return tc, err
		}
		f := d.field(termFields, key)
		if err := d.once(&seen, f, key); err != nil {
			return tc, err
		}
		switch f {
		case 0:
			tc.Term, err = d.intValue("t")
		case 1:
			tc.Count, err = d.floatValue("c")
		default:
			err = d.skipValue(depth)
		}
		if err != nil {
			return tc, err
		}
	}
}

// numList reads the elements of a numeric observation list after its '['.
func (d *decoder) numList() error {
	for first := true; ; first = false {
		done, err := d.nextElem(first)
		if err != nil || done {
			return err
		}
		x, err := d.floatValue("numeric observation")
		if err != nil {
			return err
		}
		d.addObs()
		if !d.full {
			d.nums.push(x)
		}
	}
}

func (d *decoder) addObs() {
	d.nObs++
	d.checkCount(d.lim.MaxObservations, d.nObs)
}

// linkElem reads one element of "links"; null is the zero link.
func (d *decoder) linkElem(depth int, null bool) error {
	d.nLinks++
	d.checkCount(d.lim.MaxLinks, d.nLinks)
	var l linkSpan
	if !null {
		var seen uint
		for first := true; ; first = false {
			_, key, done, err := d.nextKey(first)
			if err != nil {
				return err
			}
			if done {
				break
			}
			f := d.field(linkFields, key)
			if err := d.once(&seen, f, key); err != nil {
				return err
			}
			switch f {
			case 0:
				l.from, err = d.stringValue("from")
			case 1:
				l.to, err = d.stringValue("to")
			case 2:
				l.rel, err = d.stringValue("rel")
			case 3:
				l.w, err = d.floatValue("w")
			default:
				err = d.skipValue(depth)
			}
			if err != nil {
				return err
			}
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
		var seen uint
		for first := true; ; first = false {
			_, key, done, err := d.nextKey(first)
			if err != nil {
				return err
			}
			if done {
				break
			}
			f := d.field(attrFields, key)
			if err := d.once(&seen, f, key); err != nil {
				return err
			}
			switch f {
			case 0:
				var s span
				if s, err = d.stringValue("name"); err == nil && !d.full {
					a.name = d.intern(s)
				}
			case 1:
				var s span
				if s, err = d.stringValue("kind"); err == nil && !d.full {
					a.kind = d.intern(s)
				}
			case 2:
				a.vocab, err = d.intValue("vocab")
			default:
				err = d.skipValue(depth)
			}
			if err != nil {
				return err
			}
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

// ---- keys ---------------------------------------------------------------

// nextKey reads up to and including the ':' after an object's next key,
// returning the key's token and decoded bytes, or consumes the object's
// closing '}' (done). first is true before the object's first key.
func (d *decoder) nextKey(first bool) (s span, key []byte, done bool, err error) {
	d.skipSpace()
	c := d.peek()
	if c == '}' {
		d.pos++
		return s, nil, true, nil
	}
	if !first {
		if c != ',' {
			return s, nil, false, d.syntax("after object key:value pair")
		}
		d.pos++
		d.skipSpace()
		c = d.peek()
	}
	if c != '"' {
		return s, nil, false, d.syntax("looking for beginning of object key string")
	}
	if s, err = d.str(); err != nil {
		return s, nil, false, err
	}
	d.skipSpace()
	if d.peek() != ':' {
		return s, nil, false, d.syntax("after object key")
	}
	d.pos++
	d.skipSpace()
	raw := d.data[s.start:s.end]
	if !s.slow {
		return s, raw, false, nil
	}
	d.kbuf = appendUnquoted(d.kbuf[:0], raw)
	return s, d.kbuf, false, nil
}

// nextElem positions at an array's next element, or consumes its closing
// ']' (done). first is true right after the '['.
func (d *decoder) nextElem(first bool) (done bool, err error) {
	d.skipSpace()
	c := d.peek()
	if c == ']' {
		d.pos++
		return true, nil
	}
	if !first {
		if c != ',' {
			return false, d.syntax("after array element")
		}
		d.pos++
		d.skipSpace()
	}
	if d.pos >= len(d.data) {
		return false, errors.New("unexpected end of JSON input")
	}
	return false, nil
}

// field returns the index of key in fs, or -1 for an unknown key.
func (d *decoder) field(fs *fieldSet, key []byte) int {
	for i, name := range fs.names {
		if string(key) == name {
			return i
		}
	}
	d.fbuf = appendFoldedName(d.fbuf[:0], key)
	for i, name := range fs.folded {
		if string(d.fbuf) == name {
			return i
		}
	}
	return -1
}

// once rejects a second occurrence of recognised field f in one object.
func (d *decoder) once(seen *uint, f int, key []byte) error {
	if f < 0 {
		return nil
	}
	if *seen&(1<<f) != 0 {
		return fmt.Errorf("repeated key %q at offset %d", key, d.pos)
	}
	*seen |= 1 << f
	return nil
}

// keySet detects a repeated attribute name within one map: a short scan
// for the usual handful of keys, a set beyond that.
type keySet struct {
	list []string
	set  map[string]struct{}
}

func (k *keySet) reset() {
	k.list = k.list[:0]
	k.set = nil
}

// add records s and reports whether it was new.
func (k *keySet) add(s string) bool {
	if k.set != nil {
		if _, ok := k.set[s]; ok {
			return false
		}
		k.set[s] = struct{}{}
		return true
	}
	for _, x := range k.list {
		if x == s {
			return false
		}
	}
	k.list = append(k.list, s)
	if len(k.list) > 16 {
		k.set = make(map[string]struct{}, 2*len(k.list))
		for _, x := range k.list {
			k.set[x] = struct{}{}
		}
	}
	return true
}

// ---- values -------------------------------------------------------------

// stringValue reads a string field; null is the empty string.
func (d *decoder) stringValue(what string) (span, error) {
	switch d.peek() {
	case '"':
		return d.str()
	case 'n':
		return span{}, d.literal("null")
	}
	return span{}, d.mismatch(what, "a string")
}

// floatValue reads a float64 field or element; null is 0. It accepts what
// strconv.ParseFloat(…, 64) accepts without error.
func (d *decoder) floatValue(what string) (float64, error) {
	if d.peek() == 'n' {
		return 0, d.literal("null")
	}
	start, integer, err := d.number(what)
	if err != nil {
		return 0, err
	}
	tok := d.data[start:d.pos]
	if integer {
		if n, ok := smallInt(tok, 15); ok {
			x := float64(n) // exact: |n| < 10^15 < 2^53
			if tok[0] == '-' && n == 0 {
				x = -x
			}
			return x, nil
		}
	}
	x, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("cannot decode number %s into %s as float64 at offset %d", tok, what, start)
	}
	return x, nil
}

// intValue reads an int field; null is 0. A fraction, an exponent or an
// overflow is rejected.
func (d *decoder) intValue(what string) (int, error) {
	if d.peek() == 'n' {
		return 0, d.literal("null")
	}
	start, integer, err := d.number(what)
	if err != nil {
		return 0, err
	}
	tok := d.data[start:d.pos]
	if integer {
		if n, ok := smallInt(tok, 18); ok && int64(int(n)) == n {
			return int(n), nil
		}
		if n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize); err == nil {
			return int(n), nil
		}
	}
	return 0, fmt.Errorf("cannot decode number %s into %s as int at offset %d", tok, what, start)
}

// smallInt converts an optionally negative run of at most maxDigits
// decimal digits.
func smallInt(tok []byte, maxDigits int) (int64, bool) {
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	if len(tok) > maxDigits {
		return 0, false
	}
	var n int64
	for _, c := range tok {
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// number validates a JSON number at d.pos and moves past it. integer
// reports a token with neither fraction nor exponent.
func (d *decoder) number(what string) (start int, integer bool, err error) {
	data, i := d.data, d.pos
	start = i
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i >= len(data):
		d.pos = i
		return start, false, errors.New("unexpected end of JSON input")
	case data[i] == '0':
		i++
	case '1' <= data[i] && data[i] <= '9':
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	default:
		if i == start {
			return start, false, d.mismatch(what, "a number")
		}
		d.pos = i
		return start, false, d.syntax("in numeric literal")
	}
	integer = true
	if i < len(data) && data[i] == '.' {
		integer = false
		i++
		if i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			return start, false, d.syntax("after decimal point in numeric literal")
		}
		for ; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		integer = false
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			d.pos = i
			return start, false, d.syntax("in exponent of numeric literal")
		}
		for ; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	d.pos = i
	return start, integer, nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// str validates a string token at d.pos (its opening quote) and moves past
// its closing quote.
func (d *decoder) str() (span, error) {
	data := d.data
	s := span{start: d.pos + 1}
	i := s.start
	for {
		for i < len(data) && plainByte[data[i]] {
			i++
		}
		if i >= len(data) {
			d.pos = i
			return s, errors.New("unexpected end of JSON input")
		}
		switch c := data[i]; {
		case c == '"':
			s.end = i
			d.pos = i + 1
			return s, nil
		case c == '\\':
			s.slow = true
			i++
			if i >= len(data) {
				d.pos = i
				return s, errors.New("unexpected end of JSON input")
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				i++
				for k := 0; k < 4; k++ {
					if i >= len(data) {
						d.pos = i
						return s, errors.New("unexpected end of JSON input")
					}
					if !isHex(data[i]) {
						d.pos = i
						return s, d.syntax("in \\u hexadecimal character escape")
					}
					i++
				}
			default:
				d.pos = i
				return s, d.syntax("in string escape code")
			}
		case c < ' ':
			d.pos = i
			return s, d.syntax("in string literal")
		default: // c >= utf8.RuneSelf
			s.slow = true
			i++
		}
	}
}

// plainByte marks the bytes a string token holds verbatim: printable
// ASCII other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}

// literal consumes the literal word (null, true or false) at d.pos.
func (d *decoder) literal(word string) error {
	for k := 0; k < len(word); k++ {
		if d.pos >= len(d.data) {
			return errors.New("unexpected end of JSON input")
		}
		if d.data[d.pos] != word[k] {
			return d.syntax("in literal " + word + " (expecting '" + word[k:k+1] + "')")
		}
		d.pos++
	}
	return nil
}

// skipValue validates and skips any JSON value; depth is the nesting level
// of the enclosing object or array.
func (d *decoder) skipValue(depth int) error {
	switch c := d.peek(); {
	case c == '{':
		if depth+1 > maxDepth {
			return d.syntax("exceeded max depth")
		}
		d.pos++
		for first := true; ; first = false {
			_, _, done, err := d.nextKey(first)
			if err != nil || done {
				return err
			}
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
		}
	case c == '[':
		if depth+1 > maxDepth {
			return d.syntax("exceeded max depth")
		}
		d.pos++
		for first := true; ; first = false {
			done, err := d.nextElem(first)
			if err != nil || done {
				return err
			}
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := d.str()
		return err
	case c == 'n':
		return d.literal("null")
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == '-' || isDigit(c):
		_, _, err := d.number("value")
		return err
	}
	return d.mismatch("value", "a value")
}

func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.data) && d.data[d.pos] <= ' ' {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// mismatch reports a well-started value of the wrong JSON type, or a
// syntax error when no value starts at d.pos.
func (d *decoder) mismatch(what, want string) error {
	switch c := d.peek(); {
	case d.pos >= len(d.data):
		return errors.New("unexpected end of JSON input")
	case c == '{' || c == '[' || c == '"' || c == 't' || c == 'f' || c == 'n' || c == '-' || isDigit(c):
		return fmt.Errorf("cannot decode %s at offset %d: want %s", what, d.pos, want)
	}
	return d.syntax("looking for beginning of value")
}

func (d *decoder) syntax(context string) error {
	if d.pos >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %s %s at offset %d", quoteChar(d.data[d.pos]), context, d.pos)
}

// quoteChar formats c for an error message.
func quoteChar(c byte) string {
	if c == '\'' {
		return `'\''`
	}
	if c == '"' {
		return `'"'`
	}
	s := strconv.Quote(string(rune(c)))
	return "'" + s[1:len(s)-1] + "'"
}

// ---- encoding/json string semantics -------------------------------------

// appendUnquoted appends the decoded contents of a string token already
// validated by str, exactly as encoding/json unquotes it: escapes are
// resolved, a \u escape of a lone or mismatched surrogate becomes U+FFFD,
// and each byte of invalid UTF-8 becomes U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						r += 6
						dst = utf8.AppendRune(dst, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			dst = utf8.AppendRune(dst, rr)
			r += size
		}
	}
	return dst
}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// appendFoldedName appends in under encoding/json's key folding: ASCII
// letters upper-cased, every other rune replaced by the smallest rune of
// its simple fold orbit.
func appendFoldedName(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		out = utf8.AppendRune(out, foldRune(r))
		i += n
	}
	return out
}

func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}
