package scan

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// ParseInt64 converts a decimal field to int64 without allocating. It is
// the hot path of loading: every value brought from a flat file into the
// engine goes through it.
//
// A field of 1 to 8 unsigned digits takes the eight-digit path. When
// cap(b) allows, it loads b[:8] at once, so it reads up to 7 bytes past
// len(b): within the slice's capacity, memory the caller handed over with
// b. Scan fields alias the scanning worker's own read buffer, so no other
// goroutine writes there. The bytes past len(b) are shifted out before any
// test or arithmetic, so they never change the result. Every other field
// — a sign, more than 8 digits, cap(b) < 8, a non-digit — takes the digit
// loop, which also produces every error.
func ParseInt64(b []byte) (int64, error) {
	if n := len(b); n > 0 && n <= 8 && cap(b) >= 8 {
		if v, ok := parseEightDigits(binary.LittleEndian.Uint64(b[:8]), n); ok {
			return v, nil
		}
	}
	if len(b) == 0 {
		return 0, fmt.Errorf("scan: empty integer field")
	}
	neg := false
	i := 0
	switch b[0] {
	case '-':
		neg = true
		i = 1
	case '+':
		i = 1
	}
	if i == len(b) {
		return 0, fmt.Errorf("scan: invalid integer %q", b)
	}
	var v uint64
	for ; i < len(b); i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("scan: invalid integer %q", b)
		}
		d := uint64(c - '0')
		if v > (1<<63-1)/10 {
			return 0, fmt.Errorf("scan: integer overflow %q", b)
		}
		v = v*10 + d
	}
	if neg {
		if v > 1<<63 {
			return 0, fmt.Errorf("scan: integer overflow %q", b)
		}
		return -int64(v), nil
	}
	if v > 1<<63-1 {
		return 0, fmt.Errorf("scan: integer overflow %q", b)
	}
	return int64(v), nil
}

// parseEightDigits parses the first n (1..8) bytes of x, the little-endian
// load of a field, as unsigned decimal digits. Shifting x left by the
// bytes past the field drops them and leaves zero bytes in front, which
// become '0's: leading zeros. ok is false unless all eight bytes are then
// digits: each has high nibble 3 (so no sum below carries between bytes),
// and still does after adding 6, which only '0'..'9' survive. Three
// multiply-shift-mask steps combine neighbouring digits into pairs, pairs
// into fours and fours into the value (Lemire's eight-digit parse).
func parseEightDigits(x uint64, n int) (int64, bool) {
	const ones = 0x0101010101010101
	pad := uint(8-n) * 8
	x = x<<pad | 0x30*ones&(1<<pad-1)
	if x&(0xf0*ones) != 0x30*ones || (x+0x06*ones)&(0xf0*ones) != 0x30*ones {
		return 0, false
	}
	x &= 0x0f * ones
	x = x * (10<<8 + 1) >> 8 & 0x00ff00ff00ff00ff
	x = x * (100<<16 + 1) >> 16 & 0x0000ffff0000ffff
	x = x * (10000<<32 + 1) >> 32
	return int64(x), true
}

// ParseFloat64 converts a field to float64. Unlike ParseInt64 it defers to
// strconv, converting via an unsafe-free string copy only on the slow path.
func ParseFloat64(b []byte) (float64, error) {
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return 0, fmt.Errorf("scan: invalid float %q", b)
	}
	return f, nil
}

// LooksLikeInt reports whether the field consists solely of an optional
// sign and digits. Schema detection uses it for cheap type inference.
func LooksLikeInt(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	i := 0
	if b[0] == '-' || b[0] == '+' {
		i = 1
		if len(b) == 1 {
			return false
		}
	}
	for ; i < len(b); i++ {
		if b[i] < '0' || b[i] > '9' {
			return false
		}
	}
	return true
}

// LooksLikeFloat reports whether the field parses as a float (including
// plain integers, which are also valid floats).
func LooksLikeFloat(b []byte) bool {
	_, err := strconv.ParseFloat(string(b), 64)
	return err == nil
}
