// Package jsonscan is the one JSON token scanner behind genclus's
// reflection-free wire decoders: the network document
// (hin.FromJSONLimited), the assign request (infer.DecodeRequest) and the
// mutation body and delta-log record (deltalog.Decode, DecodeRecord). It
// knows JSON, not documents: keys, elements, strings, numbers, literals and
// skipped values, each read in place over the input bytes. A decoder
// embeds a Scanner and walks its own document shape with it.
//
// Every decision matches encoding/json decoding into the decoder's wire
// structs: the same grammar, encoding/json's nesting bound, its key
// matching (exactly first, then under its case fold), its string
// unquoting (invalid UTF-8 and lone surrogates become U+FFFD) and its
// number conversions (floats as strconv.ParseFloat(…, 64), ints without a
// fraction, an exponent or an overflow). The decoders add one rule of
// their own, through Object and Map: a repeated recognised key is an
// error that names it.
//
// The writing half (append.go) holds encoding/json's output rules for the
// hand-written encoders of genclusd's fit result and assign documents: a
// document those encoders write is byte for byte the one json.Marshal
// writes.
package jsonscan

import (
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting bound: a document nested deeper is
// malformed.
const maxDepth = 10000

// Scanner reads JSON tokens from Data, starting at Pos.
type Scanner struct {
	// Data is the document.
	Data []byte
	// Pos is the offset of the next unread byte.
	Pos int

	buf  []byte            // unquoting scratch for values
	kbuf []byte            // unquoting scratch for keys
	fbuf []byte            // folding scratch for keys
	keys keySet            // the keys of the map Map is reading
	strs map[string]string // raw string token → decoded string, for Intern
}

// Span is a string token's contents between its quotes.
type Span struct {
	// Start is the offset of the token's first byte after its opening
	// quote.
	Start int
	// End is the offset of the token's closing quote.
	End int
	// Slow marks a token holding an escape or a non-ASCII byte, which
	// must be unquoted.
	Slow bool
}

// errEOF is encoding/json's error for a document that ends early.
var errEOF = errors.New("unexpected end of JSON input")

// Document reads one top-level value: an object, whose contents object
// reads after its '{', or null, meaning absent. Anything after the value
// other than whitespace is rejected. what names the document in errors.
func (s *Scanner) Document(what string, object func() error) error {
	s.skipSpace()
	if s.Pos >= len(s.Data) {
		return errEOF
	}
	switch s.Data[s.Pos] {
	case '{':
		s.Pos++
		if err := object(); err != nil {
			return err
		}
	case 'n':
		if err := s.Literal("null"); err != nil {
			return err
		}
	default:
		return s.Mismatch(what, "an object")
	}
	s.skipSpace()
	if s.Pos < len(s.Data) {
		return s.syntax("after top-level value")
	}
	return nil
}

// List reads a JSON array (or null, meaning absent), calling elem at the
// start of each element to read it.
func (s *Scanner) List(what string, elem func() error) error {
	switch s.Peek() {
	case 'n':
		return s.Literal("null")
	case '[':
	default:
		return s.Mismatch(what, "an array")
	}
	s.Pos++
	for first := true; ; first = false {
		done, err := s.nextElem(first)
		if err != nil || done {
			return err
		}
		if err := elem(); err != nil {
			return err
		}
	}
}

// Array reads a JSON array of objects (or null, meaning absent), calling
// elem once per element: after the element's '{', or after a null
// element with null set. depth is the array's nesting level.
func (s *Scanner) Array(depth int, what string, elem func(depth int, null bool) error) error {
	return s.List(what, func() error {
		switch s.Peek() {
		case 'n':
			if err := s.Literal("null"); err != nil {
				return err
			}
			return elem(depth+1, true)
		case '{':
			s.Pos++
			return elem(depth+1, false)
		}
		return s.Mismatch(what+" element", "an object")
	})
}

// ---- keys ---------------------------------------------------------------

// nextKey reads up to and including the ':' after an object's next key,
// returning the key's token and decoded bytes (valid until the next call),
// or consumes the object's closing '}' (done). first is true before the
// object's first key.
func (s *Scanner) nextKey(first bool) (tok Span, key []byte, done bool, err error) {
	s.skipSpace()
	c := s.Peek()
	if c == '}' {
		s.Pos++
		return tok, nil, true, nil
	}
	if !first {
		if c != ',' {
			return tok, nil, false, s.syntax("after object key:value pair")
		}
		s.Pos++
		s.skipSpace()
		c = s.Peek()
	}
	if c != '"' {
		return tok, nil, false, s.syntax("looking for beginning of object key string")
	}
	if tok, err = s.str(); err != nil {
		return tok, nil, false, err
	}
	s.skipSpace()
	if s.Peek() != ':' {
		return tok, nil, false, s.syntax("after object key")
	}
	s.Pos++
	s.skipSpace()
	raw := s.Data[tok.Start:tok.End]
	if !tok.Slow {
		return tok, raw, false, nil
	}
	s.kbuf = appendUnquoted(s.kbuf[:0], raw)
	return tok, s.kbuf, false, nil
}

// nextElem positions at an array's next element, or consumes its closing
// ']' (done). first is true right after the '['.
func (s *Scanner) nextElem(first bool) (done bool, err error) {
	s.skipSpace()
	c := s.Peek()
	if c == ']' {
		s.Pos++
		return true, nil
	}
	if !first {
		if c != ',' {
			return false, s.syntax("after array element")
		}
		s.Pos++
		s.skipSpace()
	}
	if s.Pos >= len(s.Data) {
		return false, errEOF
	}
	return false, nil
}

// Fields is the field names of one wire struct, matched as encoding/json
// matches them: exactly first, then under its case fold.
type Fields struct {
	names, folded []string
}

// NewFields returns the field set of names, in field-index order.
func NewFields(names ...string) *Fields {
	fs := &Fields{names: names}
	for _, n := range names {
		fs.folded = append(fs.folded, string(appendFoldedName(nil, []byte(n))))
	}
	return fs
}

// Name returns the name of field f.
func (fs *Fields) Name(f int) string { return fs.names[f] }

// Object reads the members of a JSON object after its '{'; depth is the
// object's nesting level. Each key is matched against fs: field(f) reads
// the value of recognised field f, a field met twice in one object is an
// error that names it, and an unknown key's value is validated and
// skipped.
func (s *Scanner) Object(fs *Fields, depth int, field func(f int) error) error {
	var seen uint
	for first := true; ; first = false {
		_, key, done, err := s.nextKey(first)
		if err != nil || done {
			return err
		}
		f := s.field(fs, key)
		switch {
		case f < 0:
			err = s.skip(depth)
		case seen&(1<<f) != 0:
			err = fmt.Errorf("repeated key %q at offset %d", key, s.Pos)
		default:
			seen |= 1 << f
			err = field(f)
		}
		if err != nil {
			return err
		}
	}
}

// field returns the index of key in fs, or -1 for an unknown key.
func (s *Scanner) field(fs *Fields, key []byte) int {
	for i, name := range fs.names {
		if string(key) == name {
			return i
		}
	}
	s.fbuf = appendFoldedName(s.fbuf[:0], key)
	for i, name := range fs.folded {
		if string(s.fbuf) == name {
			return i
		}
	}
	return -1
}

// Map reads a JSON object that decodes into a Go map (or null, meaning
// absent): name decodes each key's token, a key met twice in the map is
// an error that names it (what names the map), and entry reads the value
// after each key. Keys are compared exactly, not folded. Maps read by Map
// must not nest.
func (s *Scanner) Map(what string, name func(Span) string, entry func(key string) error) error {
	switch s.Peek() {
	case 'n':
		return s.Literal("null")
	case '{':
	default:
		return s.Mismatch(what, "an object")
	}
	s.Pos++
	s.keys.reset()
	for first := true; ; first = false {
		tok, _, done, err := s.nextKey(first)
		if err != nil || done {
			return err
		}
		key := name(tok)
		if !s.keys.add(key) {
			return fmt.Errorf("repeated key %q in %s at offset %d", key, what, s.Pos)
		}
		if err := entry(key); err != nil {
			return err
		}
	}
}

// keySet detects a repeated key within one map: a short scan for the
// usual handful of keys, a set beyond that.
type keySet struct {
	list []string
	set  map[string]struct{}
}

// reset empties the set for the next map.
func (k *keySet) reset() {
	k.list = k.list[:0]
	k.set = nil
}

// add records key and reports whether it was new.
func (k *keySet) add(key string) bool {
	if k.set != nil {
		if _, ok := k.set[key]; ok {
			return false
		}
		k.set[key] = struct{}{}
		return true
	}
	for _, x := range k.list {
		if x == key {
			return false
		}
	}
	k.list = append(k.list, key)
	if len(k.list) > 16 {
		k.set = make(map[string]struct{}, 2*len(k.list))
		for _, x := range k.list {
			k.set[x] = struct{}{}
		}
	}
	return true
}

// ---- values -------------------------------------------------------------

// Bytes returns a string token's decoded contents, valid until the next
// call. Map lookups keyed by string(s.Bytes(tok)) allocate nothing.
func (s *Scanner) Bytes(tok Span) []byte {
	raw := s.Data[tok.Start:tok.End]
	if !tok.Slow {
		return raw
	}
	s.buf = appendUnquoted(s.buf[:0], raw)
	return s.buf
}

// Text returns a string token's decoded contents as a fresh string.
func (s *Scanner) Text(tok Span) string { return string(s.Bytes(tok)) }

// Intern returns a string token's decoded contents as a string, decoding
// and allocating each distinct token once.
func (s *Scanner) Intern(tok Span) string {
	raw := s.Data[tok.Start:tok.End]
	if v, ok := s.strs[string(raw)]; ok {
		return v
	}
	if s.strs == nil {
		s.strs = make(map[string]string)
	}
	v := s.Text(tok)
	s.strs[string(raw)] = v
	return v
}

// StringValue reads a string field; null is the empty string.
func (s *Scanner) StringValue(what string) (Span, error) {
	switch s.Peek() {
	case '"':
		return s.str()
	case 'n':
		return Span{}, s.Literal("null")
	}
	return Span{}, s.Mismatch(what, "a string")
}

// Float reads a float64 field or element; null is 0. It accepts what
// strconv.ParseFloat(…, 64) accepts without error.
func (s *Scanner) Float(what string) (float64, error) {
	if s.Peek() == 'n' {
		return 0, s.Literal("null")
	}
	start, integer, err := s.number(what)
	if err != nil {
		return 0, err
	}
	tok := s.Data[start:s.Pos]
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

// Bool reads a bool field; null is false.
func (s *Scanner) Bool(what string) (bool, error) {
	switch s.Peek() {
	case 't':
		return true, s.Literal("true")
	case 'f':
		return false, s.Literal("false")
	case 'n':
		return false, s.Literal("null")
	}
	return false, s.Mismatch(what, "a bool")
}

// ReadFloats reads a JSON array of float64s, appending its elements to
// dst, or null, which reports null: encoding/json decodes a null array as
// a nil slice and [] as an empty one.
func (s *Scanner) ReadFloats(dst []float64, what string) (out []float64, null bool, err error) {
	if s.Peek() == 'n' {
		return dst, true, s.Literal("null")
	}
	err = s.List(what, func() error {
		x, err := s.Float(what)
		dst = append(dst, x)
		return err
	})
	return dst, false, err
}

// Int reads an int field; null is 0. A fraction, an exponent or an
// overflow is rejected.
func (s *Scanner) Int(what string) (int, error) {
	if s.Peek() == 'n' {
		return 0, s.Literal("null")
	}
	start, integer, err := s.number(what)
	if err != nil {
		return 0, err
	}
	tok := s.Data[start:s.Pos]
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

// number validates a JSON number at Pos and moves past it. integer
// reports a token with neither fraction nor exponent.
func (s *Scanner) number(what string) (start int, integer bool, err error) {
	data, i := s.Data, s.Pos
	start = i
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i >= len(data):
		s.Pos = i
		return start, false, errEOF
	case data[i] == '0':
		i++
	case '1' <= data[i] && data[i] <= '9':
		for i++; i < len(data) && isDigit(data[i]); i++ {
		}
	default:
		if i == start {
			return start, false, s.Mismatch(what, "a number")
		}
		s.Pos = i
		return start, false, s.syntax("in numeric literal")
	}
	integer = true
	if i < len(data) && data[i] == '.' {
		integer = false
		i++
		if i >= len(data) || !isDigit(data[i]) {
			s.Pos = i
			return start, false, s.syntax("after decimal point in numeric literal")
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
			s.Pos = i
			return start, false, s.syntax("in exponent of numeric literal")
		}
		for ; i < len(data) && isDigit(data[i]); i++ {
		}
	}
	s.Pos = i
	return start, integer, nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// str validates a string token at Pos (its opening quote) and moves past
// its closing quote.
func (s *Scanner) str() (Span, error) {
	data := s.Data
	tok := Span{Start: s.Pos + 1}
	i := tok.Start
	for {
		for i < len(data) && plainByte[data[i]] {
			i++
		}
		if i >= len(data) {
			s.Pos = i
			return tok, errEOF
		}
		switch c := data[i]; {
		case c == '"':
			tok.End = i
			s.Pos = i + 1
			return tok, nil
		case c == '\\':
			tok.Slow = true
			i++
			if i >= len(data) {
				s.Pos = i
				return tok, errEOF
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				i++
				for k := 0; k < 4; k++ {
					if i >= len(data) {
						s.Pos = i
						return tok, errEOF
					}
					if !isHex(data[i]) {
						s.Pos = i
						return tok, s.syntax("in \\u hexadecimal character escape")
					}
					i++
				}
			default:
				s.Pos = i
				return tok, s.syntax("in string escape code")
			}
		case c < ' ':
			s.Pos = i
			return tok, s.syntax("in string literal")
		default: // c >= utf8.RuneSelf
			tok.Slow = true
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

// Literal consumes the literal word (null, true or false) at Pos.
func (s *Scanner) Literal(word string) error {
	for k := 0; k < len(word); k++ {
		if s.Pos >= len(s.Data) {
			return errEOF
		}
		if s.Data[s.Pos] != word[k] {
			return s.syntax("in literal " + word + " (expecting '" + word[k:k+1] + "')")
		}
		s.Pos++
	}
	return nil
}

// skip validates and skips any JSON value; depth is the nesting level of
// the enclosing object or array.
func (s *Scanner) skip(depth int) error {
	switch c := s.Peek(); {
	case c == '{':
		if depth+1 > maxDepth {
			return s.syntax("exceeded max depth")
		}
		s.Pos++
		for first := true; ; first = false {
			_, _, done, err := s.nextKey(first)
			if err != nil || done {
				return err
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
		}
	case c == '[':
		if depth+1 > maxDepth {
			return s.syntax("exceeded max depth")
		}
		s.Pos++
		for first := true; ; first = false {
			done, err := s.nextElem(first)
			if err != nil || done {
				return err
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := s.str()
		return err
	case c == 'n':
		return s.Literal("null")
	case c == 't':
		return s.Literal("true")
	case c == 'f':
		return s.Literal("false")
	case c == '-' || isDigit(c):
		_, _, err := s.number("value")
		return err
	}
	return s.Mismatch("value", "a value")
}

// Peek returns the byte at Pos, or 0 at the end of the document.
func (s *Scanner) Peek() byte {
	if s.Pos < len(s.Data) {
		return s.Data[s.Pos]
	}
	return 0
}

// skipSpace moves past JSON whitespace.
func (s *Scanner) skipSpace() {
	for s.Pos < len(s.Data) && s.Data[s.Pos] <= ' ' {
		switch s.Data[s.Pos] {
		case ' ', '\t', '\n', '\r':
			s.Pos++
		default:
			return
		}
	}
}

// ---- errors -------------------------------------------------------------

// Mismatch reports a well-started value of the wrong JSON type for what
// (want describes the expected type), or a syntax error when no value
// starts at Pos.
func (s *Scanner) Mismatch(what, want string) error {
	switch c := s.Peek(); {
	case s.Pos >= len(s.Data):
		return errEOF
	case c == '{' || c == '[' || c == '"' || c == 't' || c == 'f' || c == 'n' || c == '-' || isDigit(c):
		return fmt.Errorf("cannot decode %s at offset %d: want %s", what, s.Pos, want)
	}
	return s.syntax("looking for beginning of value")
}

// syntax reports the byte at Pos as invalid in context.
func (s *Scanner) syntax(context string) error {
	if s.Pos >= len(s.Data) {
		return errEOF
	}
	return fmt.Errorf("invalid character %s %s at offset %d", quoteChar(s.Data[s.Pos]), context, s.Pos)
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
