package scan

import (
	"bytes"
	"fmt"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// jsonTokenizer locates requested attributes inside one NDJSON row (one
// JSON object per line). It practices the delayed-parsing idiom: per row it
// walks the object's keys, records the raw byte range of each *requested*
// field's value, structurally skips every other value without decoding it,
// and stops walking the moment the last requested field has been located.
// The bytes handed to callbacks are raw JSON tokens — strings keep their
// quotes and escapes — so nothing is unescaped or converted until a loader
// actually needs the value.
type jsonTokenizer struct {
	names  [][]byte // JSON key per attribute index (full schema order)
	fields []FieldRef
	found  []bool  // per attribute index: located in the current row
	req    [][]int // per attribute index: positions in the caller's cols
	lookup []int   // requested attribute indices (match scan order)
	want   int     // number of distinct attributes requested
}

// newJSONTokenizer builds a locator for the requested attribute indices
// (caller order, duplicates allowed). A nil cols requests every attribute.
func newJSONTokenizer(names []string, cols []int) (*jsonTokenizer, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("scan: ndjson scan requires Options.FieldNames")
	}
	t := &jsonTokenizer{
		names: make([][]byte, len(names)),
		found: make([]bool, len(names)),
		req:   make([][]int, len(names)),
	}
	for i, n := range names {
		t.names[i] = []byte(n)
	}
	if cols == nil {
		cols = make([]int, len(names))
		for i := range cols {
			cols[i] = i
		}
	}
	t.fields = make([]FieldRef, len(cols))
	for pos, attr := range cols {
		if attr < 0 || attr >= len(names) {
			return nil, fmt.Errorf("scan: ndjson column %d out of range (have %d fields)", attr, len(names))
		}
		if len(t.req[attr]) == 0 {
			t.lookup = append(t.lookup, attr)
			t.want++
		}
		t.req[attr] = append(t.req[attr], pos)
	}
	return t, nil
}

// match returns the requested attribute index whose name equals the key
// token (raw bytes between the key's quotes), or -1. Keys containing
// escapes are unquoted before comparison; the overwhelmingly common
// escape-free key compares byte-for-byte.
func (t *jsonTokenizer) match(key []byte, esc bool) int {
	if esc {
		s, err := UnquoteJSON(key)
		if err != nil {
			return -1
		}
		key = []byte(s)
	}
	for _, attr := range t.lookup {
		if bytes.Equal(t.names[attr], key) {
			return attr
		}
	}
	return -1
}

func (t *jsonTokenizer) row(line []byte, lineOff, rowID int64, handler RowHandler, tailH RowTailHandler, abandon AbandonFunc, w *tally) error {
	if tailH != nil {
		return fmt.Errorf("scan: row %d: ndjson does not support tail capture", rowID)
	}
	for _, attr := range t.lookup {
		t.found[attr] = false
	}
	remaining := t.want
	i := skipJSONSpace(line, 0)
	if i >= len(line) || line[i] != '{' {
		return fmt.Errorf("scan: row %d: not a JSON object", rowID)
	}
	i++
	attrs := int64(0)
	first := true
	for remaining > 0 {
		i = skipJSONSpace(line, i)
		if i >= len(line) {
			return fmt.Errorf("scan: row %d: unterminated JSON object", rowID)
		}
		if line[i] == '}' {
			break
		}
		if !first {
			if line[i] != ',' {
				return fmt.Errorf("scan: row %d: expected ',' in JSON object", rowID)
			}
			i = skipJSONSpace(line, i+1)
		}
		first = false
		if i >= len(line) || line[i] != '"' {
			return fmt.Errorf("scan: row %d: expected JSON object key", rowID)
		}
		keyEnd, keyEsc, err := scanJSONString(line, i)
		if err != nil {
			return fmt.Errorf("scan: row %d: %w", rowID, err)
		}
		key := line[i+1 : keyEnd-1]
		i = skipJSONSpace(line, keyEnd)
		if i >= len(line) || line[i] != ':' {
			return fmt.Errorf("scan: row %d: expected ':' after JSON key", rowID)
		}
		i = skipJSONSpace(line, i+1)
		vEnd, err := ScanJSONValue(line, i)
		if err != nil {
			return fmt.Errorf("scan: row %d: %w", rowID, err)
		}
		// First occurrence of a key wins; later duplicates are skipped like
		// any other unrequested value.
		if attr := t.match(key, keyEsc); attr >= 0 && !t.found[attr] {
			t.found[attr] = true
			remaining--
			attrs++
			fr := FieldRef{Bytes: line[i:vEnd], Offset: lineOff + int64(i)}
			for _, pos := range t.req[attr] {
				t.fields[pos] = fr
			}
			if abandon != nil {
				for _, pos := range t.req[attr] {
					if abandon(pos, fr) {
						w.attrs += attrs
						w.abandoned++
						return nil
					}
				}
			}
		}
		i = vEnd
	}
	// remaining == 0 exits the loop with the rest of the line untouched —
	// that is the delayed-parsing payoff on wide objects.
	if remaining > 0 {
		for _, attr := range t.lookup {
			if !t.found[attr] {
				return fmt.Errorf("scan: row %d: missing field %q", rowID, t.names[attr])
			}
		}
	}
	w.attrs += attrs
	return handler(rowID, t.fields)
}

// skipJSONSpace advances past JSON insignificant whitespace.
func skipJSONSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return i
		}
	}
	return i
}

// scanJSONString returns the index just past the closing quote of the
// string starting at b[i] (which must be '"'), and whether it contains
// escapes. Contents are not validated — the value is only decoded if a
// query asks for it.
func scanJSONString(b []byte, i int) (end int, esc bool, err error) {
	j := i + 1
	for j < len(b) {
		switch b[j] {
		case '\\':
			esc = true
			j += 2
		case '"':
			return j + 1, esc, nil
		default:
			j++
		}
	}
	return 0, false, fmt.Errorf("unterminated JSON string")
}

// ScanJSONValue returns the index just past the JSON value starting at
// b[i]. Composite values (objects, arrays) are skipped structurally —
// tracking nesting depth and string boundaries only — without decoding
// their contents; scalar tokens are consumed without validation beyond
// their extent. This is the core of delayed parsing: skipping a value
// costs a byte walk, never an allocation or a parse.
func ScanJSONValue(b []byte, i int) (int, error) {
	if i >= len(b) {
		return 0, fmt.Errorf("missing JSON value")
	}
	switch b[i] {
	case '"':
		end, _, err := scanJSONString(b, i)
		return end, err
	case '{', '[':
		depth := 0
		j := i
		for j < len(b) {
			switch b[j] {
			case '"':
				end, _, err := scanJSONString(b, j)
				if err != nil {
					return 0, err
				}
				j = end
			case '{', '[':
				depth++
				j++
			case '}', ']':
				depth--
				j++
				if depth == 0 {
					return j, nil
				}
			default:
				j++
			}
		}
		return 0, fmt.Errorf("unterminated JSON %c", b[i])
	case 't':
		if bytes.HasPrefix(b[i:], []byte("true")) {
			return i + 4, nil
		}
	case 'f':
		if bytes.HasPrefix(b[i:], []byte("false")) {
			return i + 5, nil
		}
	case 'n':
		if bytes.HasPrefix(b[i:], []byte("null")) {
			return i + 4, nil
		}
	default:
		if b[i] == '-' || (b[i] >= '0' && b[i] <= '9') {
			j := i + 1
			for j < len(b) && isJSONNumberChar(b[j]) {
				j++
			}
			return j, nil
		}
	}
	return 0, fmt.Errorf("invalid JSON value at byte %d", i)
}

func isJSONNumberChar(c byte) bool {
	return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}

// UnquoteJSON decodes a raw JSON string token (including its surrounding
// quotes) to its string value. The escape-free common case is a plain
// copy; escapes follow encoding/json semantics, including \uXXXX surrogate
// pairs and the replacement rune for unpaired surrogates.
func UnquoteJSON(b []byte) (string, error) {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return "", fmt.Errorf("scan: not a JSON string token %q", b)
	}
	s := b[1 : len(b)-1]
	if bytes.IndexByte(s, '\\') < 0 && utf8.Valid(s) {
		return string(s), nil
	}
	buf := make([]byte, 0, len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '\\' {
			if c < utf8.RuneSelf {
				buf = append(buf, c)
				i++
				continue
			}
			// Re-encode multibyte sequences so invalid UTF-8 collapses to
			// the replacement rune, exactly as encoding/json decodes it.
			r, size := utf8.DecodeRune(s[i:])
			buf = utf8.AppendRune(buf, r)
			i += size
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("scan: truncated escape in JSON string %q", b)
		}
		switch s[i] {
		case '"', '\\', '/':
			buf = append(buf, s[i])
			i++
		case 'b':
			buf = append(buf, '\b')
			i++
		case 'f':
			buf = append(buf, '\f')
			i++
		case 'n':
			buf = append(buf, '\n')
			i++
		case 'r':
			buf = append(buf, '\r')
			i++
		case 't':
			buf = append(buf, '\t')
			i++
		case 'u':
			if i+5 > len(s) {
				return "", fmt.Errorf("scan: truncated \\u escape in JSON string %q", b)
			}
			r, err := hex4(s[i+1 : i+5])
			if err != nil {
				return "", err
			}
			i += 5
			if utf16.IsSurrogate(r) {
				if i+6 <= len(s) && s[i] == '\\' && s[i+1] == 'u' {
					if r2, err2 := hex4(s[i+2 : i+6]); err2 == nil {
						if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
							i += 6
							buf = utf8.AppendRune(buf, dec)
							continue
						}
					}
				}
				buf = utf8.AppendRune(buf, unicode.ReplacementChar)
				continue
			}
			buf = utf8.AppendRune(buf, r)
		default:
			return "", fmt.Errorf("scan: invalid escape \\%c in JSON string", s[i])
		}
	}
	return string(buf), nil
}

func hex4(b []byte) (rune, error) {
	var r rune
	for _, c := range b {
		r <<= 4
		switch {
		case c >= '0' && c <= '9':
			r |= rune(c - '0')
		case c >= 'a' && c <= 'f':
			r |= rune(c-'a') + 10
		case c >= 'A' && c <= 'F':
			r |= rune(c-'A') + 10
		default:
			return 0, fmt.Errorf("scan: invalid \\u escape %q", b)
		}
	}
	return r, nil
}

// ParseJSONInt64 parses a raw NDJSON field token as int64.
func ParseJSONInt64(b []byte) (int64, error) {
	return ParseInt64(b)
}

// ParseJSONFloat64 parses a raw NDJSON field token as float64.
func ParseJSONFloat64(b []byte) (float64, error) {
	return ParseFloat64(b)
}

// ParseJSONString converts a raw NDJSON field token to its string value:
// string tokens are unquoted, every other token (numbers, literals, nested
// composites) keeps its raw JSON text.
func ParseJSONString(b []byte) (string, error) {
	if len(b) > 0 && b[0] == '"' {
		return UnquoteJSON(b)
	}
	return string(b), nil
}

// WalkJSONObject iterates the key/value pairs of the single JSON object in
// line, handing fn each key (unquoted) and the raw bytes of its value
// token. Returning false stops the walk early. Schema discovery and eager
// baselines use it; the query path goes through the jsonTokenizer, which
// additionally skips unrequested keys without unquoting them.
func WalkJSONObject(line []byte, fn func(key string, value []byte) bool) error {
	i := skipJSONSpace(line, 0)
	if i >= len(line) || line[i] != '{' {
		return fmt.Errorf("scan: not a JSON object")
	}
	i++
	first := true
	for {
		i = skipJSONSpace(line, i)
		if i >= len(line) {
			return fmt.Errorf("scan: unterminated JSON object")
		}
		if line[i] == '}' {
			return nil
		}
		if !first {
			if line[i] != ',' {
				return fmt.Errorf("scan: expected ',' in JSON object")
			}
			i = skipJSONSpace(line, i+1)
		}
		first = false
		if i >= len(line) || line[i] != '"' {
			return fmt.Errorf("scan: expected JSON object key")
		}
		keyEnd, _, err := scanJSONString(line, i)
		if err != nil {
			return err
		}
		key, err := UnquoteJSON(line[i:keyEnd])
		if err != nil {
			return err
		}
		i = skipJSONSpace(line, keyEnd)
		if i >= len(line) || line[i] != ':' {
			return fmt.Errorf("scan: expected ':' after JSON key")
		}
		i = skipJSONSpace(line, i+1)
		vEnd, err := ScanJSONValue(line, i)
		if err != nil {
			return err
		}
		if !fn(key, line[i:vEnd]) {
			return nil
		}
		i = vEnd
	}
}

// LooksLikeJSONObject reports whether the sample's first non-whitespace
// byte opens a JSON object — the format sniff for NDJSON files.
func LooksLikeJSONObject(sample []byte) bool {
	i := skipJSONSpace(sample, 0)
	return i < len(sample) && sample[i] == '{'
}
