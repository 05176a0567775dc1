// Copyright 2010 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file of the Go distribution.

// The writing half of the package: encoding/json's output rules for the
// values genclus's hand-written encoders write, copied from
// encoding/json's encode.go (appendString and floatEncoder.encode). An
// encoder built on these appenders writes json.Marshal's bytes as long as
// it also writes struct fields in declaration order, drops an omitempty
// field whose value is empty (a zero number, "", or a nil or empty slice
// or map), writes a nil slice or map as null, and writes map keys in
// sorted order (AppendMap).

package jsonscan

import (
	"errors"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends f as json.Marshal writes a float64: the shortest
// decimal that reads back as f, in 'f' form unless |f| < 1e-6 or
// |f| ≥ 1e21, then in 'e' form with a one-digit negative exponent left
// unpadded. NaN and ±Inf are an error with json.Marshal's message.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	fmt := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		fmt = 'e'
	}
	dst = strconv.AppendFloat(dst, f, fmt, -1, 64)
	if fmt == 'e' {
		// clean up e-09 to e-9
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendFloats appends xs as a JSON array of AppendFloat numbers, or null
// when xs is nil.
func AppendFloats(dst []byte, xs []float64) ([]byte, error) {
	if xs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = AppendFloat(dst, x); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// AppendMap appends m as a JSON object with its keys in sorted order, each
// value written by value, or null when m is nil.
func AppendMap[V any](dst []byte, m map[string]V, value func(dst []byte, v V) ([]byte, error)) ([]byte, error) {
	if m == nil {
		return append(dst, "null"...), nil
	}
	var small [8]string // the keys of a small map stay on the stack
	keys := small[:0]
	if len(m) > len(small) {
		keys = make([]string, 0, len(m))
	}
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, k)
		dst = append(dst, ':')
		var err error
		if dst, err = value(dst, m[k]); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// AppendString appends s as a quoted JSON string, escaped as json.Marshal
// escapes it: '"', '\\' and the control characters, HTML's '<', '>' and
// '&' as \u escapes, U+2028 and U+2029 escaped, and each byte of invalid
// UTF-8 as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// This encodes bytes < 0x20 except for \b, \f, \n, \r and
				// \t, and the HTML characters <, > and &.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		// U+2028 is LINE SEPARATOR and U+2029 PARAGRAPH SEPARATOR: valid in
		// JSON strings, but not in JavaScript source, so encoding/json
		// escapes them unconditionally.
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes a string holds verbatim under
// encoding/json's HTML-safe escaping: printable ASCII other than '"',
// '\\', '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()
