// Package wire appends JSON values to a byte slice with exactly the bytes
// encoding/json writes for them, so typed encoders can build a response
// in a pooled buffer without reflection and without changing the wire.
package wire

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string the way encoding/json's
// Marshal and Encoder write it: HTML-escaped (<, > and & as \u003c,
// \u003e and \u0026), control bytes as \b, \f, \n, \r, \t or \u00XX,
// each byte of invalid UTF-8 as \ufffd, and U+2028 and U+2029 escaped.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends a finite f as encoding/json writes a float64:
// the shortest representation that round-trips, in 'e' notation below
// 1e-6 and from 1e21 on (with a one-digit negative exponent unpadded),
// in 'f' notation otherwise. Callers check finiteness first with
// CheckFinite; NaN and ±Inf have no JSON spelling.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 is written e-7.
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// CheckFinite returns the error encoding/json reports for the first NaN
// or infinite value among fs, in order, and nil when every value is
// finite.
func CheckFinite(fs ...float64) error {
	for _, f := range fs {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return &json.UnsupportedValueError{
				Value: reflect.ValueOf(f),
				Str:   strconv.FormatFloat(f, 'g', -1, 64),
			}
		}
	}
	return nil
}

// AppendFloats appends fs as a JSON array of floats, or null for a nil
// slice, after checking that every value is finite.
func AppendFloats(b []byte, fs []float64) ([]byte, error) {
	if fs == nil {
		return append(b, "null"...), nil
	}
	if err := CheckFinite(fs...); err != nil {
		return b, err
	}
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendFloat(b, f)
	}
	return append(b, ']'), nil
}

// AppendInts appends ns as a JSON array of integers, or null for a nil
// slice.
func AppendInts(b []byte, ns []int) []byte {
	if ns == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, n := range ns {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, ']')
}
