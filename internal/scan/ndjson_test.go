package scan

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.ndjson")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func ndjsonOpts(names ...string) Options {
	return Options{Format: FormatNDJSON, FieldNames: names, Workers: 1}
}

func TestNDJSONScanColumns(t *testing.T) {
	input := `{"id":1,"name":"alice","score":3.5}
{"score":-2,"id":2,"name":"bob"}
{"id":3,"name":"c,d","score":0}
`
	s, err := Open(writeTemp(t, input), ndjsonOpts("id", "name", "score"))
	if err != nil {
		t.Fatal(err)
	}
	var ids, names, scores []string
	err = s.ScanColumns([]int{0, 1, 2}, func(rowID int64, fields []FieldRef) error {
		ids = append(ids, string(fields[0].Bytes))
		names = append(names, string(fields[1].Bytes))
		scores = append(scores, string(fields[2].Bytes))
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(ids, " "), "1 2 3"; got != want {
		t.Errorf("ids = %q, want %q", got, want)
	}
	// Raw tokens keep their quotes: parsing is delayed until a loader needs
	// the value.
	if got, want := strings.Join(names, " "), `"alice" "bob" "c,d"`; got != want {
		t.Errorf("names = %q, want %q", got, want)
	}
	if got, want := strings.Join(scores, " "), "3.5 -2 0"; got != want {
		t.Errorf("scores = %q, want %q", got, want)
	}
}

// TestNDJSONDelayedParsing proves the rest of a row is never tokenized
// once every requested field is located: garbage after the last requested
// key goes unnoticed.
func TestNDJSONDelayedParsing(t *testing.T) {
	input := `{"a":1,"b":2,"junk":<unparseable>}` + "\n"
	s, err := Open(writeTemp(t, input), ndjsonOpts("a", "b", "junk"))
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	err = s.ScanColumns([]int{0, 1}, func(rowID int64, fields []FieldRef) error {
		rows++
		return nil
	}, nil)
	if err != nil || rows != 1 {
		t.Fatalf("scan of [a b] = (%d rows, %v), want 1 row, nil", rows, err)
	}
	// Asking for the junk field walks into it and fails.
	if err := s.ScanColumns([]int{2}, func(int64, []FieldRef) error { return nil }, nil); err == nil {
		t.Fatal("scan of junk field succeeded, want error")
	}
}

func TestNDJSONFieldOffsetsPointAtTokens(t *testing.T) {
	input := `{"a":10,"b":"x"}` + "\n" + `{"a":20,"b":"y"}` + "\n"
	s, err := Open(writeTemp(t, input), ndjsonOpts("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	type loc struct {
		rowOff int64
		val    string
	}
	var locs []loc
	data := []byte(input)
	err = s.ScanColumns([]int{1}, func(rowID int64, fields []FieldRef) error {
		f := fields[0]
		if got := string(data[f.Offset : f.Offset+int64(len(f.Bytes))]); got != string(f.Bytes) {
			t.Errorf("offset %d does not point at token %q (file has %q)", f.Offset, f.Bytes, got)
		}
		locs = append(locs, loc{rowOff: f.Offset, val: string(f.Bytes)})
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 2 || locs[0].val != `"x"` || locs[1].val != `"y"` {
		t.Fatalf("locs = %+v", locs)
	}
}

func TestNDJSONMissingFieldErrors(t *testing.T) {
	input := `{"a":1}` + "\n"
	s, err := Open(writeTemp(t, input), ndjsonOpts("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	err = s.ScanColumns([]int{1}, func(int64, []FieldRef) error { return nil }, nil)
	if err == nil || !strings.Contains(err.Error(), `missing field "b"`) {
		t.Fatalf("err = %v, want missing field", err)
	}
}

func TestNDJSONDuplicateKeyFirstWins(t *testing.T) {
	input := `{"a":1,"a":2}` + "\n"
	s, err := Open(writeTemp(t, input), ndjsonOpts("a"))
	if err != nil {
		t.Fatal(err)
	}
	var got string
	err = s.ScanColumns([]int{0}, func(_ int64, fields []FieldRef) error {
		got = string(fields[0].Bytes)
		return nil
	}, nil)
	if err != nil || got != "1" {
		t.Fatalf("got %q (%v), want first occurrence 1", got, err)
	}
}

func TestNDJSONAbandon(t *testing.T) {
	input := `{"a":1,"b":"keep"}` + "\n" + `{"a":2,"b":"drop"}` + "\n"
	s, err := Open(writeTemp(t, input), ndjsonOpts("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	err = s.ScanColumns([]int{0, 1}, func(_ int64, fields []FieldRef) error {
		kept = append(kept, string(fields[1].Bytes))
		return nil
	}, func(idx int, f FieldRef) bool {
		if idx != 0 {
			return false
		}
		v, err := ParseJSONInt64(f.Bytes)
		return err == nil && v != 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 1 || kept[0] != `"keep"` {
		t.Fatalf("kept = %q, want [\"keep\"]", kept)
	}
}

func TestNDJSONScanAllFields(t *testing.T) {
	input := `{"x":1,"y":true}` + "\r\n" + `{"y":null,"x":2}` + "\n"
	s, err := Open(writeTemp(t, input), ndjsonOpts("x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	err = s.ScanColumns(nil, func(_ int64, fields []FieldRef) error {
		rows = append(rows, string(fields[0].Bytes)+"/"+string(fields[1].Bytes))
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0] != "1/true" || rows[1] != "2/null" {
		t.Fatalf("rows = %q", rows)
	}
}

func TestNDJSONNestedAndEscaped(t *testing.T) {
	input := `{"kA":{"in":[1,2,{"d":"}"}]},"s":"a\"b\\c\nd","n":-1.5e3}` + "\n"
	s, err := Open(writeTemp(t, input), ndjsonOpts("kA", "s", "n"))
	if err != nil {
		t.Fatal(err)
	}
	var obj, str, num string
	err = s.ScanColumns([]int{0, 1, 2}, func(_ int64, fields []FieldRef) error {
		obj, str, num = string(fields[0].Bytes), string(fields[1].Bytes), string(fields[2].Bytes)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if obj != `{"in":[1,2,{"d":"}"}]}` {
		t.Errorf("nested token = %q", obj)
	}
	u, err := ParseJSONString([]byte(str))
	if err != nil || u != "a\"b\\c\nd" {
		t.Errorf("unquoted = %q (%v)", u, err)
	}
	if f, err := ParseJSONFloat64([]byte(num)); err != nil || f != -1500 {
		t.Errorf("num = %v (%v)", f, err)
	}
}

func TestNDJSONParallelPortioned(t *testing.T) {
	var b strings.Builder
	const n = 500
	for i := 0; i < n; i++ {
		b.WriteString(`{"pad":"xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx","v":`)
		b.WriteString(jsonInt(int64(i)))
		b.WriteString("}\n")
	}
	opts := ndjsonOpts("pad", "v")
	opts.Workers = 4
	opts.ChunkSize = 1 << 10
	opts.Portioned = true
	s, err := Open(writeTemp(t, b.String()), opts)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[int64]string)
	err = s.ScanColumns([]int{1}, func(rowID int64, fields []FieldRef) error {
		mu.Lock()
		seen[rowID] = string(fields[0].Bytes)
		mu.Unlock()
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("saw %d rows, want %d", len(seen), n)
	}
	for i := int64(0); i < n; i++ {
		if seen[i] != jsonInt(i) {
			t.Fatalf("row %d = %q", i, seen[i])
		}
	}
}

func jsonInt(v int64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestUnquoteJSONMatchesEncodingJSON(t *testing.T) {
	tokens := []string{
		`"plain"`,
		`""`,
		`"a\"b"`,
		`"\\\/\b\f\n\r\t"`,
		`"Aé中"`,
		`"😀"`,       // surrogate pair
		`"\ud800"`,  // lone high surrogate
		`"\udc00x"`, // lone low surrogate
		`"\ud800A"`, // high surrogate + non-surrogate
		`"tab\there"`,
	}
	for _, tok := range tokens {
		var want string
		if err := json.Unmarshal([]byte(tok), &want); err != nil {
			t.Fatalf("oracle rejected %q: %v", tok, err)
		}
		got, err := UnquoteJSON([]byte(tok))
		if err != nil {
			t.Fatalf("UnquoteJSON(%q): %v", tok, err)
		}
		if got != want {
			t.Errorf("UnquoteJSON(%q) = %q, want %q", tok, got, want)
		}
	}
	for _, bad := range []string{`"`, `x`, `"\q"`, `"\u12"`, `"\u12zq"`} {
		if _, err := UnquoteJSON([]byte(bad)); err == nil {
			t.Errorf("UnquoteJSON(%q) succeeded, want error", bad)
		}
	}
}

func TestNDJSONRejectsNonObjectLines(t *testing.T) {
	// Note "{\"a\":1" with no closing brace is NOT here: the lazy walk stops
	// at the last requested field and never notices the missing '}'.
	for _, input := range []string{"[1,2]\n", "42\n", "\n{\"a\":1}\n", "{\"b\":1}\n"} {
		s, err := Open(writeTemp(t, input), ndjsonOpts("a"))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ScanColumns([]int{0}, func(int64, []FieldRef) error { return nil }, nil); err == nil {
			t.Errorf("input %q scanned cleanly, want error", input)
		}
	}
}
