package scan

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nodb/internal/csvgen"
	"nodb/internal/metrics"
)

func writeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// collect scans cols and returns rows as "rowID:f0|f1|..." strings sorted by
// rowID, so parallel scans can be compared deterministically.
func collect(t *testing.T, path string, opts Options, cols []int, abandon AbandonFunc) map[int64]string {
	t.Helper()
	sc, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	out := map[int64]string{}
	err = sc.ScanColumns(cols, func(rowID int64, fields []FieldRef) error {
		parts := make([]string, len(fields))
		for i, f := range fields {
			parts[i] = string(f.Bytes)
		}
		mu.Lock()
		out[rowID] = strings.Join(parts, "|")
		mu.Unlock()
		return nil
	}, abandon)
	if err != nil {
		t.Fatalf("ScanColumns: %v", err)
	}
	return out
}

func TestScanBasic(t *testing.T) {
	path := writeFile(t, "1,2,3\n4,5,6\n7,8,9\n")
	got := collect(t, path, Options{}, []int{0, 2}, nil)
	want := map[int64]string{0: "1|3", 1: "4|6", 2: "7|9"}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("row %d = %q, want %q", k, got[k], v)
		}
	}
	if len(got) != 3 {
		t.Errorf("got %d rows, want 3", len(got))
	}
}

func TestScanNoTrailingNewline(t *testing.T) {
	path := writeFile(t, "1,2\n3,4")
	got := collect(t, path, Options{}, []int{0, 1}, nil)
	if len(got) != 2 || got[1] != "3|4" {
		t.Errorf("got %v", got)
	}
}

func TestScanCRLF(t *testing.T) {
	path := writeFile(t, "1,2\r\n3,4\r\n")
	got := collect(t, path, Options{}, []int{1}, nil)
	if got[0] != "2" || got[1] != "4" {
		t.Errorf("CRLF not stripped: %v", got)
	}
}

func TestScanHeader(t *testing.T) {
	path := writeFile(t, "a,b\n10,20\n30,40\n")
	got := collect(t, path, Options{SkipHeader: true}, []int{0}, nil)
	if len(got) != 2 || got[0] != "10" || got[1] != "30" {
		t.Errorf("header handling wrong: %v", got)
	}
}

func TestScanAllColumns(t *testing.T) {
	path := writeFile(t, "1,2,3\n4,5\n")
	sc, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var widths []int
	err = sc.ScanColumns(nil, func(rowID int64, fields []FieldRef) error {
		widths = append(widths, len(fields))
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(widths) != 2 || widths[0] != 3 || widths[1] != 2 {
		t.Errorf("all-columns widths = %v, want [3 2]", widths)
	}
}

func TestScanUnsortedAndDuplicateColumns(t *testing.T) {
	path := writeFile(t, "1,2,3,4\n")
	got := collect(t, path, Options{}, []int{3, 0, 3}, nil)
	if got[0] != "4|1|4" {
		t.Errorf("got %q, want 4|1|4", got[0])
	}
}

func TestScanColumnOutOfRange(t *testing.T) {
	path := writeFile(t, "1,2\n")
	sc, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = sc.ScanColumns([]int{5}, func(int64, []FieldRef) error { return nil }, nil)
	if err == nil {
		t.Error("expected error for out-of-range column")
	}
}

func TestScanEmptyFile(t *testing.T) {
	path := writeFile(t, "")
	sc, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := sc.NumRows()
	if err != nil || n != 0 {
		t.Errorf("NumRows = %d, %v; want 0, nil", n, err)
	}
}

func TestScanOffsets(t *testing.T) {
	path := writeFile(t, "10,20\n30,40\n")
	sc, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	err = sc.ScanColumns([]int{1}, func(rowID int64, fields []FieldRef) error {
		offs = append(offs, fields[0].Offset)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// "10,20\n30,40\n": second field starts at 3 and 9.
	if len(offs) != 2 || offs[0] != 3 || offs[1] != 9 {
		t.Errorf("offsets = %v, want [3 9]", offs)
	}
}

func TestScanAbandon(t *testing.T) {
	path := writeFile(t, "1,a\n2,b\n3,c\n")
	var c metrics.Counters
	got := collect(t, path, Options{Counters: &c}, []int{0, 1},
		func(idx int, f FieldRef) bool {
			return idx == 0 && string(f.Bytes) == "2"
		})
	if len(got) != 2 {
		t.Errorf("got %d rows, want 2 (row with 2 abandoned): %v", len(got), got)
	}
	if _, ok := got[1]; ok {
		t.Error("abandoned row should not reach handler")
	}
	if s := c.Snapshot(); s.RowsAbandoned != 1 {
		t.Errorf("RowsAbandoned = %d, want 1", s.RowsAbandoned)
	}
}

func TestScanAbandonSkipsLaterAttrs(t *testing.T) {
	// When the predicate on column 0 fails, column 3 must not be
	// tokenized; attribute counting proves it.
	path := writeFile(t, "1,x,y,z\n2,x,y,z\n")
	var c metrics.Counters
	collect(t, path, Options{Counters: &c}, []int{0, 3},
		func(idx int, f FieldRef) bool { return idx == 0 }) // abandon all rows
	s := c.Snapshot()
	if s.AttrsTokenized != 2 { // only column 0 of each row
		t.Errorf("AttrsTokenized = %d, want 2", s.AttrsTokenized)
	}
	if s.RowsAbandoned != 2 {
		t.Errorf("RowsAbandoned = %d, want 2", s.RowsAbandoned)
	}
}

func TestScanNumRows(t *testing.T) {
	path := writeFile(t, "1\n2\n3\n4\n5\n")
	sc, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := sc.NumRows()
	if err != nil || n != 5 {
		t.Errorf("NumRows = %d, %v; want 5", n, err)
	}
}

func TestScanErrStop(t *testing.T) {
	path := writeFile(t, "1\n2\n3\n")
	sc, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	err = sc.ScanColumns([]int{0}, func(rowID int64, fields []FieldRef) error {
		seen++
		return ErrStop
	}, nil)
	if err != nil {
		t.Errorf("ErrStop should not surface: %v", err)
	}
	if seen != 1 {
		t.Errorf("handler ran %d times, want 1", seen)
	}
}

func TestScanParallelMatchesSequential(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 20000, Cols: 5, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	seq := collect(t, path, Options{Workers: 1, ChunkSize: 4096}, []int{1, 3}, nil)
	par := collect(t, path, Options{Workers: 4, ChunkSize: 4096}, []int{1, 3}, nil)
	if len(seq) != 20000 || len(par) != len(seq) {
		t.Fatalf("row counts differ: seq=%d par=%d", len(seq), len(par))
	}
	for k, v := range seq {
		if par[k] != v {
			t.Fatalf("row %d differs: seq=%q par=%q", k, v, par[k])
		}
	}
}

func TestScanSmallChunks(t *testing.T) {
	// Chunk smaller than a row forces the carry/regrow path.
	var rows []string
	for i := 0; i < 50; i++ {
		rows = append(rows, fmt.Sprintf("%d,%s", i, strings.Repeat("x", 100)))
	}
	path := writeFile(t, strings.Join(rows, "\n")+"\n")
	got := collect(t, path, Options{ChunkSize: 32}, []int{0}, nil)
	if len(got) != 50 {
		t.Fatalf("got %d rows, want 50", len(got))
	}
	for i := int64(0); i < 50; i++ {
		if got[i] != fmt.Sprint(i) {
			t.Fatalf("row %d = %q", i, got[i])
		}
	}
}

func TestScanCountersBytes(t *testing.T) {
	content := "1,2\n3,4\n"
	path := writeFile(t, content)
	var c metrics.Counters
	collect(t, path, Options{Counters: &c}, []int{0}, nil)
	s := c.Snapshot()
	// Phase 1 (row counting) + phase 2 both read the file.
	if s.RawBytesRead < int64(len(content)) {
		t.Errorf("RawBytesRead = %d, want >= %d", s.RawBytesRead, len(content))
	}
	if s.RowsTokenized != 2 {
		t.Errorf("RowsTokenized = %d, want 2", s.RowsTokenized)
	}
}

// TestSkipDelims checks the word-at-a-time delimiter skip against a plain
// byte loop: every start offset and count, over lines whose delimiters sit
// at and across word edges, in long runs, next to bytes >= 0x80 (0xac is
// ',' with the high bit set) and above d^1 ('-' for ',', '}' for '|'),
// where a borrowing zero-byte test reports false delimiters.
func TestSkipDelims(t *testing.T) {
	naive := func(line []byte, off, k int, d byte) (int, int) {
		n := 0
		for i := off; i < len(line); i++ {
			if line[i] == d {
				if n++; n == k {
					return i + 1, n
				}
			}
		}
		return len(line), n
	}
	lines := []string{
		"",
		",",
		"abcdefg,h",
		"abcdefgh,",
		"abcdefg,abcdefgh,abcdefghi,",
		",,,,,,,,,,,,,,,,,,,",
		"\x80,\xff,\xac\xac,,\xff\x80|\xfc,",
		"1234567|1234567|1234567|",
		",-,-,-,-,-,-,-,-",
		"|}|}}|}}}|",
	}
	r := rand.New(rand.NewSource(1))
	alphabet := []byte{',', '|', '-', '}', 'a', 0x80, 0x81, 0xff, 0xac, 0xfc}
	for i := 0; i < 200; i++ {
		b := make([]byte, r.Intn(40))
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		lines = append(lines, string(b))
	}
	for _, s := range lines {
		line := []byte(s)
		for _, d := range []byte{',', '|', 0x80} {
			for off := 0; off <= len(line); off++ {
				for k := 1; k <= len(line)-off+1; k++ {
					gotPos, gotN := skipDelims(line, off, k, d)
					wantPos, wantN := naive(line, off, k, d)
					if gotPos != wantPos || gotN != wantN {
						t.Fatalf("skipDelims(%q, %d, %d, %q) = %d, %d; want %d, %d", line, off, k, d, gotPos, gotN, wantPos, wantN)
					}
				}
			}
		}
	}
}

func TestParseInt64(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"42", 42, true},
		{"-17", -17, true},
		{"+9", 9, true},
		{"9223372036854775807", 1<<63 - 1, true},
		{"-9223372036854775808", -1 << 63, true},
		{"9223372036854775808", 0, false},
		{"", 0, false},
		{"-", 0, false},
		{"12a", 0, false},
		{"1.5", 0, false},
	}
	for _, c := range cases {
		got, err := ParseInt64([]byte(c.in))
		if (err == nil) != c.ok {
			t.Errorf("ParseInt64(%q) err = %v, ok want %v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseInt64(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseFloat64(t *testing.T) {
	if v, err := ParseFloat64([]byte("2.5")); err != nil || v != 2.5 {
		t.Errorf("ParseFloat64(2.5) = %v, %v", v, err)
	}
	if _, err := ParseFloat64([]byte("nope")); err == nil {
		t.Error("expected error")
	}
}

func TestLooksLike(t *testing.T) {
	if !LooksLikeInt([]byte("-42")) || LooksLikeInt([]byte("4.2")) || LooksLikeInt([]byte("")) || LooksLikeInt([]byte("-")) {
		t.Error("LooksLikeInt misbehaves")
	}
	if !LooksLikeFloat([]byte("4.2")) || LooksLikeFloat([]byte("x")) {
		t.Error("LooksLikeFloat misbehaves")
	}
}

func BenchmarkScanTwoOfFour(b *testing.B) {
	path := filepath.Join(b.TempDir(), "b.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 100000, Cols: 4, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	st, _ := os.Stat(path)
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc, err := Open(path, Options{})
		if err != nil {
			b.Fatal(err)
		}
		var sum int64
		err = sc.ScanColumns([]int{0, 1}, func(rowID int64, fields []FieldRef) error {
			v, _ := ParseInt64(fields[0].Bytes)
			sum += v
			return nil
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseInt64(b *testing.B) {
	in := []byte("123456789")
	for i := 0; i < b.N; i++ {
		if _, err := ParseInt64(in); err != nil {
			b.Fatal(err)
		}
	}
}

func TestScanColumnsTail(t *testing.T) {
	path := writeFile(t, "1,2,3,4\n5,6,7,8\n")
	sc, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	type rec struct{ fields, tail string }
	var got []rec
	err = sc.ScanColumnsTail([]int{0, 1}, func(rowID int64, fields []FieldRef, tail FieldRef) error {
		got = append(got, rec{string(fields[0].Bytes) + "|" + string(fields[1].Bytes), string(tail.Bytes)})
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("rows = %d", len(got))
	}
	if got[0].fields != "1|2" || got[0].tail != "3,4" {
		t.Errorf("row 0 = %+v, want fields 1|2 tail 3,4", got[0])
	}
	if got[1].tail != "7,8" {
		t.Errorf("row 1 tail = %q", got[1].tail)
	}
}

func TestScanColumnsTailLastColumn(t *testing.T) {
	path := writeFile(t, "1,2,3\n")
	sc, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var tail string
	tailOff := int64(-1)
	err = sc.ScanColumnsTail([]int{2}, func(rowID int64, fields []FieldRef, t FieldRef) error {
		tail = string(t.Bytes)
		tailOff = t.Offset
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tail != "" {
		t.Errorf("tail after last column = %q, want empty", tail)
	}
	if tailOff != 5 { // end of line "1,2,3"
		t.Errorf("tail offset = %d, want 5", tailOff)
	}
}

func TestScanColumnsTailWithAbandon(t *testing.T) {
	path := writeFile(t, "1,a,x\n2,b,y\n")
	var rows int
	sc, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	err = sc.ScanColumnsTail([]int{0}, func(rowID int64, fields []FieldRef, tail FieldRef) error {
		rows++
		if string(tail.Bytes) != "b,y" {
			t.Errorf("tail = %q, want b,y", tail.Bytes)
		}
		return nil
	}, func(idx int, f FieldRef) bool { return string(f.Bytes) == "1" })
	if err != nil {
		t.Fatal(err)
	}
	if rows != 1 {
		t.Errorf("rows = %d, want 1 (first abandoned)", rows)
	}
}

// TestQuickScannerMatchesReference compares the tokenizer against a naive
// strings.Split reference on randomized tables.
func TestQuickScannerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	letters := "abcdefghijklmnop0123456789-"
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(6)
		var sb strings.Builder
		table := make([][]string, rows)
		for r := 0; r < rows; r++ {
			table[r] = make([]string, cols)
			for c := 0; c < cols; c++ {
				n := rng.Intn(8) // empty fields allowed
				var f strings.Builder
				for i := 0; i < n; i++ {
					f.WriteByte(letters[rng.Intn(len(letters))])
				}
				table[r][c] = f.String()
				if c > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(f.String())
			}
			sb.WriteByte('\n')
		}
		path := writeFile(t, sb.String())
		// Random subset of columns in random order.
		nReq := 1 + rng.Intn(cols)
		req := rng.Perm(cols)[:nReq]
		sc, err := Open(path, Options{ChunkSize: 16 + rng.Intn(64)})
		if err != nil {
			t.Fatal(err)
		}
		// Workers defaults to GOMAXPROCS, so the handler runs on several
		// goroutines at once: it scatters into a row-indexed slice (one
		// slot per row id, never shared) instead of writing a map.
		got := make([][]string, rows)
		err = sc.ScanColumns(req, func(rowID int64, fields []FieldRef) error {
			vals := make([]string, len(fields))
			for i, f := range fields {
				vals[i] = string(f.Bytes)
			}
			got[rowID] = vals
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if n := sc.RowsScanned(); n != int64(rows) {
			t.Fatalf("trial %d: scanned %d rows, want %d", trial, n, rows)
		}
		for r := 0; r < rows; r++ {
			if got[r] == nil {
				t.Fatalf("trial %d: row %d never delivered", trial, r)
			}
			for i, c := range req {
				if got[r][i] != table[r][c] {
					t.Fatalf("trial %d row %d col %d: %q != %q",
						trial, r, c, got[r][i], table[r][c])
				}
			}
		}
	}
}

// TestQuickOffsetsPointAtFields verifies recorded byte offsets: reading
// the file at each offset must yield the field text.
func TestQuickOffsetsPointAtFields(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		rows := 1 + rng.Intn(20)
		var sb strings.Builder
		for r := 0; r < rows; r++ {
			fmt.Fprintf(&sb, "%d,%d,%d\n", rng.Intn(1000), rng.Intn(1000), rng.Intn(1000))
		}
		content := sb.String()
		path := writeFile(t, content)
		sc, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		err = sc.ScanColumns([]int{1, 2}, func(rowID int64, fields []FieldRef) error {
			for _, f := range fields {
				at := content[f.Offset : f.Offset+int64(len(f.Bytes))]
				if at != string(f.Bytes) {
					t.Fatalf("offset %d: file has %q, field is %q", f.Offset, at, f.Bytes)
				}
			}
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
}
