package storage

import (
	"encoding/json"
	"math"
	"math/bits"
	"reflect"
	"slices"
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

// AppendJSONCols appends n rows of column vectors as NDJSON lines, byte
// for byte what AppendJSONRow writes for the same rows boxed. Row r is
// position sel[r] of every column, or position r when sel is nil. Values
// are read straight from the typed vectors. A NaN or infinite float
// returns a *json.UnsupportedValueError with dst truncated to the start of
// the failing row; the rows before it stay appended.
func AppendJSONCols(dst []byte, cols []*DenseColumn, sel []int32, n int) ([]byte, error) {
	for r := 0; r < n; r++ {
		i := r
		if sel != nil {
			i = int(sel[r])
		}
		mark := len(dst)
		dst = append(dst, '[')
		for j, c := range cols {
			if j > 0 {
				dst = append(dst, ',')
			}
			switch c.Typ {
			case schema.Int64:
				dst = appendInt(dst, c.Ints[i])
			case schema.Float64:
				var err error
				if dst, err = appendJSONFloat(dst, c.Floats[i]); err != nil {
					return dst[:mark], err
				}
			default:
				dst = appendJSONString(dst, c.Strs[i])
			}
		}
		dst = append(dst, ']', '\n')
	}
	return dst, nil
}

// digitPairs holds the two-digit decimals "00" through "99".
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"40414243444546474849505152535455565758596061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// pow10 are the powers of ten a uint64 holds.
var pow10 = [20]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// appendInt appends v in decimal, as strconv.AppendInt(dst, v, 10) does,
// but writes the digits straight into dst's spare capacity, two per step
// from the last, instead of into a scratch buffer that is then copied.
func appendInt(dst []byte, v int64) []byte {
	u := uint64(v)
	if v < 0 {
		dst = append(dst, '-')
		u = -u // MinInt64 wraps to its magnitude
	}
	// floor(log10(2^len)) is the digit count or one short of it.
	n := bits.Len64(u) * 1233 >> 12
	if u >= pow10[n] {
		n++
	}
	n = max(n, 1)
	dst = slices.Grow(dst, n)
	end := len(dst) + n
	b := dst[len(dst):end]
	for u >= 100 {
		q := u / 100
		d := (u - q*100) * 2
		n -= 2
		b[n], b[n+1] = digitPairs[d], digitPairs[d+1]
		u = q
	}
	if u >= 10 {
		b[0], b[1] = digitPairs[u*2], digitPairs[u*2+1]
	} else {
		b[0] = byte('0' + u)
	}
	return dst[:end]
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
