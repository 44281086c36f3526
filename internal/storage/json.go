package storage

import (
	"encoding/binary"
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
// position sel[r] of every column, or position r when sel is nil. Each
// column's kind and typed vector are resolved once per batch, and values
// are read straight from the vectors.
//
// Reservation: before each row, dst's spare capacity is grown to the
// row's bound counting no float or string: 3 bytes for "[", "]" and the
// newline, 1 per column for its separator and maxIntLen per int column.
// The row is then written by index into that room. A float or string
// appends itself, and the bound is reserved again after it.
//
// A NaN or infinite float returns a *json.UnsupportedValueError with dst
// truncated to the start of the failing row; the rows before it stay
// appended.
func AppendJSONCols(dst []byte, cols []*DenseColumn, sel []int32, n int) ([]byte, error) {
	var buf [16]DenseColumn // the columns' headers, copied once per batch
	vecs := buf[:0]
	bound := 3 + len(cols)
	for _, c := range cols {
		vecs = append(vecs, *c)
		if c.Typ == schema.Int64 {
			bound += maxIntLen
		}
	}
	back := min(len(vecs), 1) // the last value's ',' becomes the ']'
	for r := 0; r < n; r++ {
		i := r
		if sel != nil {
			i = int(sel[r])
		}
		mark := len(dst)
		b := slices.Grow(dst, bound)
		b = b[:cap(b)]
		b[mark] = '['
		p := mark + 1
		for j := range vecs {
			v := &vecs[j]
			switch v.Typ {
			case schema.Int64:
				// Inlined by hand: a call per int costs more than its digits.
				x := v.Ints[i]
				u := uint64(x)
				if x < 0 {
					b[p] = '-'
					p++
					u = -u // MinInt64 wraps to its magnitude
				}
				if u < 1e8 {
					p = putLeading(b, p, digits8(u))
				} else {
					p = putLong(b, p, u)
				}
			case schema.Float64:
				d, err := appendJSONFloat(b[:p], v.Floats[i])
				if err != nil {
					return b[:mark], err
				}
				b, p = reserve(d, bound)
			default:
				b, p = reserve(appendJSONString(b[:p], v.Strs[i]), bound)
			}
			b[p] = ','
			p++
		}
		p -= back
		b[p], b[p+1] = ']', '\n'
		dst = b[:p+2]
	}
	return dst, nil
}

// reserve grows d by n bytes of spare capacity and returns its whole
// capacity with the write position at its old end.
func reserve(d []byte, n int) ([]byte, int) {
	p := len(d)
	d = slices.Grow(d, n)
	return d[:cap(d)], p
}

const (
	// maxIntLen is the longest decimal int64, a sign and 19 digits. An
	// int's digit stores stay inside it: a sign and a whole 8-byte word
	// for one shorter than eight digits.
	maxIntLen = 20
	// asciiZeros turns eight digit values into their ASCII digits.
	asciiZeros = 0x3030303030303030
)

// digits8 returns the eight decimal digits of x < 1e8 as one word, one
// digit value (0-9) per byte, most significant digit in the lowest byte.
// It neither branches nor divides: x splits by 10 000 into two 32-bit
// lanes, each lane by 100 into two 16-bit lanes and each of those by 10
// into two bytes, every quotient a multiply and a shift that is exact
// below the lane's bound (x*10486>>20 = x/100 for x < 10 000, x*103>>10
// = x/10 for x < 100).
func digits8(x uint64) uint64 {
	hi := x * 109951163 >> 40 // x / 10 000 for x < 1e8
	v := hi | (x-hi*10000)<<32
	q := v * 10486 >> 20 & 0x7f_0000007f
	v = q | (v-q*100)<<16
	q = v * 103 >> 10 & 0xf_000f_000f_000f
	return q | (v-q*10)<<8
}

// putLeading stores the digits of w (a digits8 word) from its first
// non-zero one, and at least one digit, at b[p:] and returns the position
// after them. The leading zeros are w's zero low bytes, so
// TrailingZeros64 counts them; the bit set in the last digit's byte keeps
// the value zero at one digit. The store is a whole word, so b needs 8
// bytes from p.
func putLeading(b []byte, p int, w uint64) int {
	lz := uint(bits.TrailingZeros64(w|1<<56)) & 56 // in bits, a multiple of 8
	binary.LittleEndian.PutUint64(b[p:p+8:p+8], (w|asciiZeros)>>lz)
	return p + 8 - int(lz>>3)
}

// putGroup stores all eight digits of w at b[p:].
func putGroup(b []byte, p int, w uint64) int {
	binary.LittleEndian.PutUint64(b[p:p+8:p+8], w|asciiZeros)
	return p + 8
}

// putLong writes a magnitude u >= 1e8 at b[p:] as 8-digit groups: the
// leading group without its leading zeros, the others in full.
func putLong(b []byte, p int, u uint64) int {
	if u < 1e16 {
		hi := u / 1e8
		p = putLeading(b, p, digits8(hi))
		return putGroup(b, p, digits8(u-hi*1e8))
	}
	top := u / 1e16
	rest := u - top*1e16
	mid := rest / 1e8
	p = putLeading(b, p, digits8(top))
	p = putGroup(b, p, digits8(mid))
	return putGroup(b, p, digits8(rest-mid*1e8))
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
