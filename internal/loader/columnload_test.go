package loader

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"

	"nodb/internal/catalog"
	"nodb/internal/csvgen"
	"nodb/internal/govern"
	"nodb/internal/metrics"
	"nodb/internal/vfs"
)

// writeGen writes a generated CSV and returns its path.
func writeGen(t *testing.T, spec csvgen.Spec) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.csv")
	if err := csvgen.WriteFile(path, spec); err != nil {
		t.Fatal(err)
	}
	return path
}

// linkFresh links path into a new catalog with its own counters.
func linkFresh(t testing.TB, path string, opts catalog.Options) (*catalog.Table, *metrics.Counters) {
	t.Helper()
	var c metrics.Counters
	opts.Counters = &c
	tab, err := catalog.New(opts).Link("G", path)
	if err != nil {
		t.Fatal(err)
	}
	return tab, &c
}

// TestColumnLoadWorkersAgree: a counted layout scatters dense values and
// offsets by row id (in parallel or not), a single uncounted portion
// appends them; every way must leave the same columns, the same positional
// map and the same exact work counts.
func TestColumnLoadWorkersAgree(t *testing.T) {
	path := writeGen(t, csvgen.Spec{Rows: 20000, Cols: 6, Seed: 11})
	cols := []int{4, 1, 2}
	type result struct {
		tab  *catalog.Table
		work metrics.Snapshot
	}
	load := func(workers int, synopsis bool) result {
		tab, c := linkFresh(t, path, catalog.Options{})
		// A small chunk gives both synopsis loads the same multi-portion
		// layout, so even their layout pre-pass reads the same bytes.
		l := &Loader{Counters: c, Workers: workers, ChunkSize: 4096, RecordPositions: true, UseSynopsis: synopsis}
		if err := l.ColumnLoadContext(context.Background(), tab, cols); err != nil {
			t.Fatal(err)
		}
		return result{tab, c.Snapshot()}
	}
	seq, par, stream := load(1, true), load(4, true), load(1, false)
	for _, other := range []result{par, stream} {
		for _, c := range cols {
			a, b := seq.tab.Dense(c), other.tab.Dense(c)
			if a == nil || b == nil || !slices.Equal(a.Int64s(), b.Int64s()) || a.Len() != 20000 {
				t.Fatalf("col %d: dense columns differ", c)
			}
			ar, ao := seq.tab.PosMap.Pairs(c)
			br, bo := other.tab.PosMap.Pairs(c)
			if len(ar) != 20000 || !slices.Equal(ar, br) || !slices.Equal(ao, bo) {
				t.Fatalf("col %d: positional maps differ (%d vs %d entries)", c, len(ar), len(br))
			}
		}
		// Per column: 20 sealed blocks, 19 of 1024 rows and the last of
		// 544, each 2 B per row plus a 16 B base and stride and an 8 B
		// index slot, and one 48 B coverage interval. Cols 1, 2, 4 use 5
		// column slots.
		if got, want := other.tab.PosMap.MemSize(), int64(5*8+3*(20*(16+8)+2*20000+48)); got != want {
			t.Fatalf("posmap bytes = %d, want %d", got, want)
		}
		s, o := seq.work, other.work
		if s.RowsTokenized != 20000 || s.ValuesParsed != 3*20000 ||
			s.RowsTokenized != o.RowsTokenized || s.AttrsTokenized != o.AttrsTokenized || s.ValuesParsed != o.ValuesParsed {
			t.Fatalf("work differs:\n %v\n %v", s, o)
		}
	}
	if seq.work.RawBytesRead != par.work.RawBytesRead {
		t.Fatalf("raw bytes differ between 1 and 4 workers: %d vs %d", seq.work.RawBytesRead, par.work.RawBytesRead)
	}
}

// TestColumnLoadFaultInstallsNothing: an EIO in the middle of a parallel
// column load leaves no dense column, no positional-map entry and no
// governor bytes behind for the columns it was loading.
func TestColumnLoadFaultInstallsNothing(t *testing.T) {
	path := writeGen(t, csvgen.Spec{Rows: 20000, Cols: 6, Seed: 12})
	cols := []int{3, 5}

	// A clean twin measures how many bytes the load reads: the row-count
	// pre-pass reads the file once, the scan once more. With 64 KiB chunks
	// the boundary probes add little, so a fault after 3/4 of that lands
	// inside the scan.
	const chunk = 64 << 10
	twin, tc := linkFresh(t, path, catalog.Options{})
	if err := (&Loader{Counters: tc, Workers: 4, ChunkSize: chunk, RecordPositions: true}).ColumnLoadContext(context.Background(), twin, cols); err != nil {
		t.Fatal(err)
	}
	clean := tc.Snapshot().RawBytesRead

	ffs := vfs.NewFaultFS(nil)
	gov := govern.New(0, nil, nil)
	tab, c := linkFresh(t, path, catalog.Options{FS: ffs, Governor: gov})
	l := &Loader{Counters: c, Workers: 4, ChunkSize: chunk, RecordPositions: true, FS: ffs}
	// Learn one unrelated column first: its state must survive the fault.
	if err := l.ColumnLoadContext(context.Background(), tab, []int{0}); err != nil {
		t.Fatal(err)
	}
	usedBefore, pmBefore := gov.Used(), tab.PosMap.MemSize()
	workBefore := c.Snapshot()

	ffs.AddRule(vfs.Rule{Op: vfs.OpRead, PathContains: "g.csv", Err: syscall.EIO, AfterBytes: clean * 3 / 4, Times: -1})
	err := l.ColumnLoadContext(context.Background(), tab, cols)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("load error = %v, want EIO", err)
	}
	if ffs.Injected.Load() == 0 {
		t.Fatal("no fault was injected")
	}
	if n := c.Snapshot().Sub(workBefore).ValuesParsed; n == 0 || n >= 2*20000 {
		t.Fatalf("fault should land mid-scan: %d values parsed before it", n)
	}
	for _, col := range cols {
		if tab.Dense(col) != nil {
			t.Errorf("col %d: a failed load installed a dense column", col)
		}
		if rows, _ := tab.PosMap.Pairs(col); len(rows) != 0 {
			t.Errorf("col %d: a failed load left %d positional-map entries", col, len(rows))
		}
	}
	if got := tab.PosMap.MemSize(); got != pmBefore {
		t.Errorf("posmap bytes %d -> %d across a failed load", pmBefore, got)
	}
	if got := gov.Used(); got != usedBefore {
		t.Errorf("governor bytes %d -> %d across a failed load", usedBefore, got)
	}
	if rows, _ := tab.PosMap.Pairs(0); len(rows) != 20000 || tab.Dense(0) == nil {
		t.Error("the earlier column's state did not survive the fault")
	}

	// The same load succeeds once the fault clears.
	ffs.Clear()
	if err := l.ColumnLoadContext(context.Background(), tab, cols); err != nil {
		t.Fatal(err)
	}
	if rows, _ := tab.PosMap.Pairs(5); len(rows) != 20000 {
		t.Fatalf("reload recorded %d positions, want 20000", len(rows))
	}
}

// TestColumnLoadAllocsFlat: positions and work counts are kept per pass,
// not per value, so the allocations of one column load do not grow with
// the row count.
func TestColumnLoadAllocsFlat(t *testing.T) {
	small := writeGen(t, csvgen.Spec{Rows: 10000, Cols: 4, Seed: 13})
	large := writeGen(t, csvgen.Spec{Rows: 40000, Cols: 4, Seed: 13})
	for _, cfg := range []struct {
		workers  int
		synopsis bool // a counted layout: scatter instead of append
	}{{1, false}, {1, true}, {4, true}} {
		allocs := func(path string) uint64 {
			tab, c := linkFresh(t, path, catalog.Options{})
			l := &Loader{Counters: c, Workers: cfg.workers, RecordPositions: true, UseSynopsis: cfg.synopsis}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := l.ColumnLoadContext(context.Background(), tab, []int{0, 2, 3}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		a10, a40 := allocs(small), allocs(large)
		if perRow := (float64(a40) - float64(a10)) / 30000; perRow > 0.01 {
			t.Errorf("%+v: %d allocs at 10k rows, %d at 40k: %.3f per extra row, want ~0", cfg, a10, a40, perRow)
		}
	}
}

// TestColumnLoadAllocBound: a column load allocates its columns, its
// offsets and the positional map's copy of them, plus one read buffer per
// worker for the count pre-pass and one for the scan — nothing per portion
// and nothing per value. A buffer per portion would add about two chunks
// per portion.
func TestColumnLoadAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("heap-byte bounds do not hold under -race")
	}
	const chunk = 64 << 10
	path := writeGen(t, csvgen.Spec{Rows: 100000, Cols: 4, Seed: 14})
	cols := []int{0, 2}
	for _, workers := range []int{1, 4} {
		tab, c := linkFresh(t, path, catalog.Options{})
		l := &Loader{Counters: c, Workers: workers, ChunkSize: chunk, RecordPositions: true, UseSynopsis: true}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := l.ColumnLoadContext(context.Background(), tab, cols); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if portions, _ := tab.Syn.Stats(); portions < 32 {
			t.Fatalf("workers %d: %d portions, want >= 32", workers, portions)
		}
		values := uint64(len(cols)) * uint64(tab.NumRows()) * (8 + 8 + 16) // dense, offsets, posmap rows+offsets
		buffers := uint64(2 * (workers + 1) * (chunk + 4096))
		if got := after.TotalAlloc - before.TotalAlloc; got > values+buffers+256<<10 {
			t.Errorf("workers %d: load allocated %d bytes, want <= %d (values) + %d (read buffers) + 256 KiB", workers, got, values, buffers)
		}
	}
}

// TestColumnLoadLayoutMismatchErrors: when a learned layout no longer
// matches the file (edited in place, same size), a load that scatters by
// row id fails instead of writing out of range or leaving a slot unset.
func TestColumnLoadLayoutMismatchErrors(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, i)
	}
	content := sb.String()
	for _, tc := range []struct {
		name string
		at   int  // byte to overwrite
		with byte // its replacement
		want string
	}{
		// Split the last row in two: one row past the counted total.
		{"extra row", strings.LastIndexByte(content, ','), '\n', "beyond the 5000 rows"},
		// Join two rows mid-file: one counted slot is never written.
		{"missing row", strings.IndexByte(content[len(content)/2:], '\n') + len(content)/2, ',', "scanned 4999 rows"},
	} {
		path := filepath.Join(t.TempDir(), "e.csv")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		tab, c := linkFresh(t, path, catalog.Options{})
		l := &Loader{Counters: c, Workers: 4, ChunkSize: 4096, UseSynopsis: true}
		if err := l.ColumnLoadContext(context.Background(), tab, []int{1}); err != nil { // learns the layout
			t.Fatal(err)
		}
		edited := []byte(content)
		edited[tc.at] = tc.with
		if err := os.WriteFile(path, edited, 0o644); err != nil {
			t.Fatal(err)
		}
		err := l.ColumnLoadContext(context.Background(), tab, []int{0})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if tab.Dense(0) != nil {
			t.Fatalf("%s: a failed load installed a dense column", tc.name)
		}
	}
}

// TestColumnLoadWidensPastSample: a column whose values outgrow the
// schema sample's range after it — a row-id sequence, or one wide only in
// its middle third, so parsed rows sit between the spills — spills in the
// portions that stray and ends at the width of its whole [min, max]; a
// column the sample covers stays at the sample's width. Every way of
// running the pass (appending, scattering, positional) agrees on values,
// widths and MemSize.
func TestColumnLoadWidensPastSample(t *testing.T) {
	var sb strings.Builder
	const rows = 40000
	mid := func(i int) int64 { // small, wide in the middle third, small again
		if i >= rows/3 && i < 2*rows/3 {
			return int64(i) << 20
		}
		return int64(i % 7)
	}
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&sb, "%d,%d,%d,%d\n", i%100, i, -i*100_000, mid(i))
	}
	path := filepath.Join(t.TempDir(), "seq.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	wantWidth := []int{1, 4, 8, 8}
	for _, l := range []*Loader{{Workers: 1}, {Workers: 4, ChunkSize: 4096}, {Workers: 4, ChunkSize: 4096, RecordPositions: true, UsePositions: true, UseSynopsis: true}} {
		tab, c := linkFresh(t, path, catalog.Options{})
		l.Counters = c
		if l.UsePositions {
			// Load a1 and a2 first: a2's positions anchor the positional
			// load of a3.
			if err := l.ColumnLoadContext(context.Background(), tab, []int{0, 1}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.ColumnLoadContext(context.Background(), tab, []int{0, 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		if l.UsePositions && c.Snapshot().PosMapHits == 0 {
			t.Error("the second load did not use positions")
		}
		for col, w := range wantWidth {
			d := tab.Dense(col)
			if d.Width() != w || d.Len() != rows || d.MemSize() != int64(rows*w) {
				t.Fatalf("workers %d col %d: width %d, %d rows, MemSize %d; want %d, %d, %d", l.Workers, col, d.Width(), d.Len(), d.MemSize(), w, rows, rows*w)
			}
			for i := 0; i < rows; i += 97 {
				if got, want := d.Int(i), []int64{int64(i % 100), int64(i), int64(-i * 100_000), mid(i)}[col]; got != want {
					t.Fatalf("workers %d col %d row %d = %d, want %d", l.Workers, col, i, got, want)
				}
			}
		}
	}
}
