package scan

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// FuzzScanVsCSV differentially tests the tokenizer against encoding/csv,
// both scanning every attribute and walking to a projected column subset
// (the path column loads take). The two parsers agree on the unquoted-CSV
// dialect the engine speaks:
// comma-delimited fields, LF or CRLF row endings, a final line with or
// without a trailing newline, and empty (including trailing) fields.
// Inputs outside that common dialect are skipped:
//
//   - quotes: encoding/csv implements RFC 4180 quoting, the tokenizer
//     deliberately does not;
//   - bare \r (not followed by \n): encoding/csv normalizes it away inside
//     fields, the tokenizer preserves it;
//   - empty lines: encoding/csv silently drops them, the tokenizer
//     reports a row with one empty field (a CSV file's empty line is a
//     real row to a system that maps row ids to byte offsets).
func FuzzScanVsCSV(f *testing.F) {
	f.Add("a,b,c\n1,2,3\n")
	f.Add("a,,b\n")            // empty middle field
	f.Add("a,b,\n,x,\n")       // empty trailing fields
	f.Add("a,b\r\nc,d\r\n")    // CRLF endings
	f.Add("a,b\nc,d")          // final line without newline
	f.Add("x\n")               // single column
	f.Add(",,,\n")             // all-empty row
	f.Add("a,b\r\nc,d")        // CRLF then unterminated final line
	f.Add("0,1,2,3,4,5,6,7\n") // wide row
	// The projected walk skips delimiters eight bytes at a time.
	f.Add("abcdefg,abcdefgh,abcdefghi,x\n")             // fields straddling a word
	f.Add("abcdefg,abcdefg,abcdefg,\n")                 // a delimiter as a word's last byte
	f.Add("\x80,\xff,\x80\xff,\xac,,\xff\x80\n")        // bytes >= 0x80 next to delimiters
	f.Add("a|b,c|d\n|,|\n")                             // '|' is data in a comma file
	f.Add("0,1,2,3,4,5,6,7,8,9,10,11,12\n1,2\n3,4,5\n") // a row too short for a projection

	f.Fuzz(func(t *testing.T, input string) {
		if input == "" || strings.ContainsAny(input, "\"") {
			t.Skip()
		}
		// Reject bare \r and empty lines (dialect differences, see above).
		prev := byte('\n')
		for i := 0; i < len(input); i++ {
			ch := input[i]
			if ch == '\r' && (i+1 >= len(input) || input[i+1] != '\n') {
				t.Skip()
			}
			if ch == '\n' && (prev == '\n' || (prev == '\r' && i == 1)) {
				t.Skip()
			}
			if ch == '\n' && i >= 2 && input[i-1] == '\r' && input[i-2] == '\n' {
				t.Skip()
			}
			prev = ch
		}
		if input[0] == '\n' || input[0] == '\r' {
			t.Skip()
		}

		// Oracle: encoding/csv with no field-count enforcement.
		cr := csv.NewReader(strings.NewReader(input))
		cr.FieldsPerRecord = -1
		var want [][]string
		for {
			rec, err := cr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Skip() // not in the common dialect
			}
			want = append(want, rec)
		}

		path := filepath.Join(t.TempDir(), "fuzz.csv")
		if err := os.WriteFile(path, []byte(input), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, Options{Workers: 1, ChunkSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		var got [][]string
		err = s.ScanColumns(nil, func(rowID int64, fields []FieldRef) error {
			row := make([]string, len(fields))
			for i, fr := range fields {
				row[i] = string(fr.Bytes)
			}
			got = append(got, row)
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("ScanColumns(%q): %v", input, err)
		}

		if len(got) != len(want) {
			t.Fatalf("input %q: scan saw %d rows, csv saw %d\nscan: %q\ncsv:  %q", input, len(got), len(want), got, want)
		}
		for i := range got {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("input %q row %d: scan %q vs csv %q", input, i, got[i], want[i])
			}
			for j := range got[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("input %q row %d field %d: scan %q vs csv %q", input, i, j, got[i][j], want[i][j])
				}
			}
		}

		// The projected walk every column load takes, field by field: an
		// unsorted column list with a duplicate, once within the narrowest
		// row and once reaching past it (short rows must fail), then over
		// a '|'-delimited copy of the input.
		narrow, wide := len(want[0]), 0
		for _, rec := range want {
			narrow, wide = min(narrow, len(rec)), max(wide, len(rec))
		}
		h := len(input) + int(input[len(input)/2])
		inner := []int{narrow - 1, h % narrow, narrow - 1}
		outer := []int{h % (wide + 2), 0, h % (wide + 2)}
		checkProjected(t, input, path, ',', want, inner)
		checkProjected(t, input, path, ',', want, outer)
		if !strings.Contains(input, "|") {
			piped := filepath.Join(t.TempDir(), "fuzz.psv")
			if err := os.WriteFile(piped, []byte(strings.ReplaceAll(input, ",", "|")), 0o644); err != nil {
				t.Fatal(err)
			}
			checkProjected(t, input, piped, '|', want, outer)
		}

		// The parallel portioned scan must tokenize the same multiset of
		// rows (order differs across portions).
		sp, err := Open(path, Options{Workers: 4, ChunkSize: 16, Portioned: true})
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		rowsByID := make(map[int64][]string)
		var seen int
		err = sp.ScanColumns(nil, func(rowID int64, fields []FieldRef) error {
			row := make([]string, len(fields))
			for i, fr := range fields {
				row[i] = string(fr.Bytes)
			}
			mu.Lock()
			rowsByID[rowID] = row
			seen++
			mu.Unlock()
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("parallel ScanColumns(%q): %v", input, err)
		}
		if seen != len(want) {
			t.Fatalf("input %q: parallel scan saw %d rows, want %d", input, seen, len(want))
		}
		for i, rec := range want {
			gotRow, ok := rowsByID[int64(i)]
			if !ok || !equalRow(gotRow, rec) {
				t.Fatalf("input %q: parallel row %d = %q, want %q", input, i, gotRow, rec)
			}
		}
	})
}

// checkProjected scans cols of the file at path (Workers 1, tiny chunks)
// and checks every field against the csv records of input: the rows before
// the first one too narrow for the largest requested column must match,
// and that row must fail the scan with the "has N attributes" error.
func checkProjected(t *testing.T, input, path string, delim byte, want [][]string, cols []int) {
	t.Helper()
	s, err := Open(path, Options{Workers: 1, ChunkSize: 16, Delimiter: delim})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	err = s.ScanColumns(cols, func(rowID int64, fields []FieldRef) error {
		if rowID != int64(seen) || seen >= len(want) {
			t.Fatalf("input %q cols %v: row %d after %d of %d rows", input, cols, rowID, seen, len(want))
		}
		for j, c := range cols {
			if got := string(fields[j].Bytes); got != want[seen][c] {
				t.Fatalf("input %q %q-delimited cols %v row %d field %d: scan %q vs csv %q", input, delim, cols, seen, j, got, want[seen][c])
			}
		}
		seen++
		return nil
	}, nil)
	top := slices.Max(cols)
	for r, rec := range want {
		if len(rec) > top {
			continue
		}
		need := top // the first requested attribute past the row's end
		for _, c := range cols {
			if c >= len(rec) && c < need {
				need = c
			}
		}
		msg := fmt.Sprintf("scan: row %d has %d attributes, need index %d", r, len(rec), need)
		if err == nil || err.Error() != msg || seen != r {
			t.Fatalf("input %q %q-delimited cols %v: err %v after %d rows, want %q after %d", input, delim, cols, err, seen, msg, r)
		}
		return
	}
	if err != nil || seen != len(want) {
		t.Fatalf("input %q %q-delimited cols %v: err %v after %d rows, want %d rows", input, delim, cols, err, seen, len(want))
	}
}

func equalRow(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFuzzSeedsDirectly runs the seed corpus through the fuzz body logic's
// oracle comparison so `go test` (without -fuzz) still exercises it.
func TestScanMatchesCSVOnEdgeCases(t *testing.T) {
	inputs := []string{
		"a,,b\n",
		"a,b,\n,x,\n",
		"a,b\r\nc,d\r\n",
		"a,b\nc,d",
		",,,\n",
		"0,1,2,3,4,5,6,7\n",
	}
	for _, input := range inputs {
		cr := csv.NewReader(strings.NewReader(input))
		cr.FieldsPerRecord = -1
		var want [][]string
		for {
			rec, err := cr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("oracle rejected seed %q: %v", input, err)
			}
			want = append(want, rec)
		}
		path := filepath.Join(t.TempDir(), "seed.csv")
		if err := os.WriteFile(path, []byte(input), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path, Options{Workers: 1, ChunkSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		var got [][]string
		err = s.ScanColumns(nil, func(rowID int64, fields []FieldRef) error {
			row := make([]string, len(fields))
			for i, fr := range fields {
				row[i] = string(fr.Bytes)
			}
			got = append(got, row)
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var gotB, wantB bytes.Buffer
		for _, r := range got {
			gotB.WriteString(strings.Join(r, "\x00") + "\x01")
		}
		for _, r := range want {
			wantB.WriteString(strings.Join(r, "\x00") + "\x01")
		}
		if gotB.String() != wantB.String() {
			t.Errorf("seed %q: scan %q vs csv %q", input, got, want)
		}
	}
}
