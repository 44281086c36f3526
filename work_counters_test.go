package nodb

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nodb/internal/csvgen"
)

// TestColdQueryWorkCounters pins the deterministic work counters of one
// cold query. Unlike wall-clock numbers they do not move with the machine,
// the core count or the read size, so any change in how much of the raw
// file a cold query reads, tokenizes or parses fails here exactly.
//
// RawBytesRead is twice the file size because the row-count pre-pass reads
// the file once before the parallel pass numbers the rows. Reading the
// file once (ROADMAP item 0) is expected to turn that 2x into 1x; update
// the expectation then, and only then.
func TestColdQueryWorkCounters(t *testing.T) {
	const (
		rows     = 200_000
		cols     = 8
		fileSize = 10_311_120
		query    = "select sum(a1), avg(a3) from t where a2 < 100000"
	)
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := csvgen.EnsureFile(path, csvgen.Spec{Rows: rows, Cols: cols, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if st.Size() != fileSize {
		t.Fatalf("generated file is %d bytes, want %d: csvgen output changed", st.Size(), fileSize)
	}

	policies := []struct {
		pol          Policy
		valuesParsed int64
	}{
		{ColumnLoads, 600_000},    // a1, a2, a3 over every row
		{PartialLoadsV2, 300_000}, // the predicate is pushed into the scan
		{FullLoad, 1_600_000},     // all eight attributes over every row
	}
	for _, p := range policies {
		for _, workers := range []int{1, 2, 8} {
			for _, chunk := range []int{0, 64 << 10} {
				name := fmt.Sprintf("%s/workers=%d/chunk=%d", p.pol, workers, chunk)
				t.Run(name, func(t *testing.T) {
					db := Open(Options{Policy: p.pol, Workers: workers, ChunkSize: chunk})
					defer db.Close()
					if err := db.Attach("t", TableSpec{Path: path}); err != nil {
						t.Fatal(err)
					}
					if _, err := db.Query(query); err != nil {
						t.Fatal(err)
					}
					w := db.Work()
					if w.RawBytesRead != 2*fileSize {
						t.Errorf("RawBytesRead = %d, want %d (2 x file size)", w.RawBytesRead, 2*fileSize)
					}
					if w.RowsTokenized != rows {
						t.Errorf("RowsTokenized = %d, want %d", w.RowsTokenized, rows)
					}
					if w.ValuesParsed != p.valuesParsed {
						t.Errorf("ValuesParsed = %d, want %d", w.ValuesParsed, p.valuesParsed)
					}
				})
			}
		}
	}
}

// TestPositionalLoadWorkCounters pins the work of a positional column
// load: after the (a1,a2) query has recorded positions, the (a3,a4) query
// jumps to a2's recorded position in every row and tokenizes a2..a4 from
// there. It runs over the layout the first query learned, so it reads the
// file exactly once, tokenizes every row once and parses only the two
// loaded columns.
func TestPositionalLoadWorkCounters(t *testing.T) {
	const (
		rows     = 200_000
		cols     = 8
		fileSize = 10_311_120
		anchor   = 1 // a2
		maxCol   = 3 // a4
	)
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := csvgen.EnsureFile(path, csvgen.Spec{Rows: rows, Cols: cols, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if st.Size() != fileSize {
		t.Fatalf("generated file is %d bytes, want %d: csvgen output changed", st.Size(), fileSize)
	}
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db := Open(Options{Policy: ColumnLoads, Workers: workers})
			defer db.Close()
			if err := db.Attach("t", TableSpec{Path: path}); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Query("select sum(a1) from t where a2 < 100000"); err != nil {
				t.Fatal(err)
			}
			before := db.Work()
			if _, err := db.Query("select sum(a3) from t where a4 < 100000"); err != nil {
				t.Fatal(err)
			}
			w := db.Work().Sub(before)
			if w.RawBytesRead != fileSize {
				t.Errorf("RawBytesRead = %d, want %d (the file once)", w.RawBytesRead, fileSize)
			}
			if w.RowsTokenized != rows {
				t.Errorf("RowsTokenized = %d, want %d", w.RowsTokenized, rows)
			}
			if w.PosMapHits != rows {
				t.Errorf("PosMapHits = %d, want %d", w.PosMapHits, rows)
			}
			if w.ValuesParsed != 2*rows {
				t.Errorf("ValuesParsed = %d, want %d", w.ValuesParsed, 2*rows)
			}
			if want := int64(rows * (maxCol - anchor + 1)); w.AttrsTokenized != want {
				t.Errorf("AttrsTokenized = %d, want %d", w.AttrsTokenized, want)
			}
		})
	}
}
