package storage

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"nodb/internal/schema"
)

// AppendJSONRow appends row as a JSON array followed by a newline — one
// NDJSON line — and returns the extended buffer. Values are appended
// straight from their typed fields, with no boxing and no reflection; the
// bytes are exactly what encoding/json's Encoder (with SetEscapeHTML(false))
// writes for the same row as a []any. A NaN or infinite float returns a
// *json.UnsupportedValueError and dst truncated to its original length.
func AppendJSONRow(dst []byte, row []Value) ([]byte, error) {
	mark := len(dst)
	dst, err := appendJSONArray(dst, row)
	if err != nil {
		return dst[:mark], err
	}
	return append(dst, '\n'), nil
}

// AppendJSONRows appends rows as one JSON array of arrays (no trailing
// newline): the "rows" member of a buffered query response.
func AppendJSONRows(dst []byte, rows [][]Value) ([]byte, error) {
	mark := len(dst)
	dst = append(dst, '[')
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendJSONArray(dst, row); err != nil {
			return dst[:mark], err
		}
	}
	return append(dst, ']'), nil
}

func appendJSONArray(dst []byte, row []Value) ([]byte, error) {
	dst = append(dst, '[')
	for j, v := range row {
		if j > 0 {
			dst = append(dst, ',')
		}
		switch v.Typ {
		case schema.Int64:
			dst = strconv.AppendInt(dst, v.I, 10)
		case schema.Float64:
			var err error
			if dst, err = appendJSONFloat(dst, v.F); err != nil {
				return dst, err
			}
		default:
			dst = appendJSONString(dst, v.S)
		}
	}
	return append(dst, ']'), nil
}

// appendJSONFloat formats f like encoding/json: ES6 number-to-string
// ('f' unless the magnitude is below 1e-6 or at least 1e21), with a
// one-digit negative exponent left unpadded (1e-7, not 1e-07).
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s like encoding/json with HTML escaping off:
// '"' and '\\' and control bytes are escaped (\b \f \n \r \t by name, the
// rest as \u00XX), invalid UTF-8 becomes \ufffd, and U+2028/U+2029 are
// escaped. Printable ASCII — the common case — is copied in runs.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
