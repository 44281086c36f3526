package scan

import (
	"path/filepath"
	"runtime"
	"testing"

	"nodb/internal/csvgen"
)

// TestScanAllocsFlat: a scan allocates per pass, never per row. The same
// ScanColumns over 10 000 and over 40 000 generated rows, with a no-op
// handler, allocates the same count within a small constant, so the
// allocations per row fall to zero as the rows grow. Each count is the
// least of three scans, which keeps the runtime's own mallocs out.
func TestScanAllocsFlat(t *testing.T) {
	allocs := func(rows int) uint64 {
		path := filepath.Join(t.TempDir(), "flat.csv")
		if err := csvgen.WriteFile(path, csvgen.Spec{Rows: rows, Cols: 12, Seed: 5}); err != nil {
			t.Fatal(err)
		}
		least := ^uint64(0)
		for range 3 {
			sc, err := Open(path, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = sc.ScanColumns([]int{2, 6, 11}, func(int64, []FieldRef) error { return nil }, nil)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	small, large := allocs(10_000), allocs(40_000)
	t.Logf("allocations: %d for 10 000 rows, %d for 40 000", small, large)
	if large > small+8 || small > large+8 {
		t.Fatalf("ScanColumns allocated %d times over 10 000 rows and %d over 40 000: allocations grow with rows", small, large)
	}
}
