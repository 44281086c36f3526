package scan

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/metrics"
)

// byteIndex is stage 1 as a byte loop: the reference the AVX2 kernel is
// held to, and the index the bit walk is fuzzed over on CPUs without it.
func byteIndex(data []byte, delim byte, nl, dl []uint64) {
	clear(nl)
	clear(dl)
	for i, c := range data {
		if c == '\n' {
			nl[i>>6] |= 1 << (i & 63)
		}
		if c == delim {
			dl[i>>6] |= 1 << (i & 63)
		}
	}
}

// testStage1 is the kernel where the CPU has it, else byteIndex.
func testStage1() func(data []byte, delim byte, nl, dl []uint64) {
	if hasAVX2 {
		return structuralIndex
	}
	return byteIndex
}

// walkTrace is everything one projected scan of a portion shows: the rows
// it delivers (id, fields, offsets, tail), its row count, its counters and
// its error text.
func walkTrace(t *testing.T, path string, opts Options, cols []int, tail bool, abandon AbandonFunc, rb *readBuf) string {
	t.Helper()
	var c metrics.Counters
	opts.Counters = &c
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ensurePortions(); err != nil {
		t.Fatal(err)
	}
	if len(s.portions) != 1 {
		t.Fatalf("%d portions, want 1", len(s.portions))
	}
	var sb strings.Builder
	row := func(rowID int64, fields []FieldRef) {
		fmt.Fprintf(&sb, "row %d:", rowID)
		for _, f := range fields {
			fmt.Fprintf(&sb, " %q@%d", f.Bytes, f.Offset)
		}
	}
	var handler RowHandler
	var tailH RowTailHandler
	if tail {
		tailH = func(rowID int64, fields []FieldRef, tl FieldRef) error {
			row(rowID, fields)
			fmt.Fprintf(&sb, " tail %q@%d\n", tl.Bytes, tl.Offset)
			return nil
		}
	} else {
		handler = func(rowID int64, fields []FieldRef) error {
			row(rowID, fields)
			sb.WriteByte('\n')
			return nil
		}
	}
	n, err := s.scanPortion(s.portions[0], NewWalker(opts.delim(), cols), handler, tailH, abandon, rb)
	w := c.Snapshot()
	fmt.Fprintf(&sb, "rows %d tokenized %d attrs %d abandoned %d err %v", n, w.RowsTokenized, w.AttrsTokenized, w.RowsAbandoned, err)
	return sb.String()
}

// FuzzIndexedScan holds the bit walk to the byte walk: the same portion
// scanned through a buffer with a stage 1 and through one without must
// deliver the same fields at the same offsets, the same tails, the same
// counts of rows, attributes and abandoned rows, and the same error.
// Inputs cover short, empty and over-long rows, CRLF, a last row without
// a newline, five delimiters (one a byte >= 0x80, one '\r', which ends a
// CRLF row too), unsorted and duplicate columns, an abandon hook and
// chunks small enough that rows carry across reads and a long row grows
// the buffer.
func FuzzIndexedScan(f *testing.F) {
	long := strings.Repeat("abcdefg,", 700) + "z\n1,2\n"
	for _, in := range []string{
		"a,b,c\n1,2,3\n",
		"a,b\r\nc,d\r\n",
		"a,b\nc,d",
		"\n\n,\n",
		"0,1,2,3,4,5,6,7,8,9\n1,2\n3,4,5\n",
		"x|y|z\n|||\n",
		"a\tb\tc\r\nd\te\tf",
		"\x80\xac\x81\xac\xff\n\xac\xac\xac\n",
		long,
		strings.Repeat("12345678,", 9) + "9\n",
	} {
		f.Add([]byte(in), uint8(0), uint32(0x1234), uint8(3), uint8(0))
		f.Add([]byte(in), uint8(1), uint32(0x9a71), uint8(60), uint8(1))
		f.Add([]byte(in), uint8(2), uint32(0x0f3e), uint8(0), uint8(2))
		f.Add([]byte(in), uint8(3), uint32(0x5555), uint8(17), uint8(3))
		f.Add([]byte(in), uint8(4), uint32(6), uint8(5), uint8(0)) // '\r', cols {1}
	}
	f.Fuzz(func(t *testing.T, body []byte, delimSel uint8, colSeed uint32, chunk, mode uint8) {
		if len(body) == 0 {
			t.Skip()
		}
		delim := []byte{',', '|', '\t', 0xac, '\r'}[delimSel%5]
		cols := make([]int, colSeed%5)
		for i := range cols {
			cols[i] = int(colSeed>>(2+5*i)) % 12
		}
		var abandon AbandonFunc
		if mode&2 != 0 {
			abandon = func(ci int, f FieldRef) bool {
				return len(f.Bytes) > 0 && int(f.Bytes[0])%3 == ci%3
			}
		}
		path := filepath.Join(t.TempDir(), "walk.csv")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := Options{Workers: 1, ChunkSize: 1 + int(chunk)%64, Delimiter: delim}
		tail := mode&1 != 0
		want := walkTrace(t, path, opts, cols, tail, abandon, &readBuf{})
		got := walkTrace(t, path, opts, cols, tail, abandon, &readBuf{stage1: testStage1()})
		if got != want {
			t.Fatalf("body %q delim %q cols %v chunk %d mode %d:\nbit walk:  %s\nbyte walk: %s", body, delim, cols, opts.ChunkSize, mode, got, want)
		}
	})
}

// TestIndexedScanMatchesBytes runs the bit walk against the byte walk over
// generated rows at the default chunk size, every column subset shape the
// loaders use: one column, a scattered set, duplicates and all columns.
func TestIndexedScanMatchesBytes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var sb strings.Builder
	for i := 0; i < 3000; i++ {
		n := 12
		if i%97 == 96 {
			n = 13 // wider rows are fine; the walk stops at its last column
		}
		for c := 0; c < n; c++ {
			if c > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strings.Repeat("x", r.Intn(3)))
			fmt.Fprintf(&sb, "%d", r.Intn(1<<uint(r.Intn(40))))
		}
		if i%5 == 0 {
			sb.WriteByte('\r')
		}
		sb.WriteByte('\n')
	}
	path := writeFile(t, sb.String())
	for _, cols := range [][]int{{0}, {11}, {2, 6, 11}, {11, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}} {
		for _, tail := range []bool{false, true} {
			want := walkTrace(t, path, Options{Workers: 1}, cols, tail, nil, &readBuf{})
			got := walkTrace(t, path, Options{Workers: 1}, cols, tail, nil, &readBuf{stage1: testStage1()})
			if got != want {
				t.Fatalf("cols %v tail %v: bit walk and byte walk differ", cols, tail)
			}
		}
	}
	// A short row fails both walks with the byte walk's error.
	short := writeFile(t, "1,2,3\n4,5\n")
	for _, rb := range []*readBuf{{}, {stage1: testStage1()}} {
		s, err := Open(short, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ensurePortions(); err != nil {
			t.Fatal(err)
		}
		_, err = s.scanPortion(s.portions[0], NewWalker(',', []int{0, 2}), func(int64, []FieldRef) error { return nil }, nil, nil, rb)
		if want := "scan: row 1 has 2 attributes, need index 2"; err == nil || err.Error() != want {
			t.Fatalf("stage1 %v: err %v, want %q", rb.stage1 != nil, err, want)
		}
	}
}

// coldShape writes rows of the benchmark's 16-column table: twelve
// permutation-like ints, a decimal, a small int, a skewed int and a word.
func coldShape(tb testing.TB, rows int) string {
	tb.Helper()
	r := rand.New(rand.NewSource(1))
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		for c := 0; c < 12; c++ {
			fmt.Fprintf(&sb, "%d,", r.Intn(rows))
		}
		k := r.Intn(1_000_000)
		fmt.Fprintf(&sb, "%d.%03d,%d,%d,", k/1000, k%1000, r.Intn(64), 1+r.Intn(9999))
		for j := 4 + r.Intn(5); j > 0; j-- {
			sb.WriteByte(byte('a' + r.Intn(26)))
		}
		sb.WriteByte('\n')
	}
	path := filepath.Join(tb.TempDir(), "wide.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		tb.Fatal(err)
	}
	return path
}

// BenchmarkScanColdShape scans the benchmark's 16-column shape one
// worker wide, parsing every int field it is handed as a column load
// does: the cold query's columns 2, 6 and 11, then all sixteen, each by
// the byte walk and by the bit walk when the CPU has stage 1.
func BenchmarkScanColdShape(b *testing.B) {
	const rows = 100_000
	path := coldShape(b, rows)
	all := make([]int, 16)
	for i := range all {
		all[i] = i
	}
	paths := []string{"bytes"}
	if hasAVX2 {
		paths = append(paths, "index")
	}
	for _, cols := range [][]int{{2, 6, 11}, all} {
		for _, name := range paths {
			b.Run(fmt.Sprintf("cols=%d/path=%s", len(cols), name), func(b *testing.B) {
				s, err := Open(path, Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if err := s.ensurePortions(); err != nil {
					b.Fatal(err)
				}
				var rb readBuf
				if name == "index" {
					rb.stage1 = structuralIndex
				}
				var sum int64
				handler := func(_ int64, fields []FieldRef) error {
					for i, f := range fields {
						if c := cols[i]; c == 12 || c == 15 {
							continue
						}
						v, err := ParseInt64(f.Bytes)
						if err != nil {
							return err
						}
						sum += v
					}
					return nil
				}
				b.SetBytes(s.Size())
				b.ResetTimer()
				for range b.N {
					if _, err := s.scanPortion(s.portions[0], NewWalker(',', cols), handler, nil, nil, &rb); err != nil && !errors.Is(err, ErrStop) {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			})
		}
	}
}
