package scan

import (
	"encoding/binary"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseInt64 holds ParseInt64 to strconv.ParseInt. The field is s;
// after fills the buffer past it, within cap, which the eight-digit path
// loads and must ignore; tight makes cap equal len, the field at the very
// end of a buffer, which sends a short field to the digit loop.
func FuzzParseInt64(f *testing.F) {
	for _, s := range []string{
		"0", "7", "42", "1234567", "12345678", "00000000", "99999999",
		"123456789", "9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809", "12345678901234567890",
		"-1", "+1", "-", "+", "", "1a", "a1", "12:4", "1/2", "1 2", "\x00",
	} {
		f.Add(s, []byte("12345678"), false)
		f.Add(s, []byte(",x\n\xff"), true)
		f.Add(s, []byte{}, false)
	}
	f.Fuzz(func(t *testing.T, s string, after []byte, tight bool) {
		buf := append([]byte(s), after...)
		b := buf[:len(s)]
		if tight {
			b = buf[:len(s):len(s)]
		}
		got, err := ParseInt64(b)
		want, werr := strconv.ParseInt(s, 10, 64)
		if n := len(s); n >= 1 && n <= 8 && strings.Trim(s, "0123456789") == "" && len(buf) >= 8 {
			// 1 to 8 plain digits within an 8-byte load take the fast path.
			if _, ok := parseEightDigits(binary.LittleEndian.Uint64(buf), n); !ok {
				t.Fatalf("%q with %q after it missed the eight-digit path", s, after)
			}
		}
		if (err == nil) != (werr == nil) || (err == nil && got != want) {
			t.Fatalf("ParseInt64(%q) with %q after it (cap %d) = %d, %v; strconv: %d, %v", s, after, cap(b), got, err, want, werr)
		}
	})
}
