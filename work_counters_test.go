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
