package scan

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nodb/internal/metrics"
)

// TestScanReadBuffersPerWorker: the count pre-pass and the scan each read
// through one buffer per worker, not one per portion, so a pass over a
// many-portion file allocates about 2·workers read buffers whatever its
// size (one per portion per phase would be ~80 here).
func TestScanReadBuffersPerWorker(t *testing.T) {
	const chunk = 64 << 10
	var sb strings.Builder
	for i := 0; sb.Len() < 40*chunk; i++ {
		fmt.Fprintf(&sb, "%d,%d,%d\n", i, i*7, i%97)
	}
	path := writeFile(t, sb.String())
	for _, workers := range []int{1, 4} {
		s, err := Open(path, Options{Workers: workers, ChunkSize: chunk, Portioned: true})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.NumRows(); err != nil {
			t.Fatal(err)
		}
		if err := s.ScanColumns([]int{2, 0}, func(int64, []FieldRef) error { return nil }, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if ports, _ := s.Portions(); len(ports) < 32 {
			t.Fatalf("workers %d: %d portions, want >= 32", workers, len(ports))
		}
		bound := uint64(2*(workers+1)*(chunk+carryRoom) + 64<<10)
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("workers %d: pass allocated %d bytes, want <= %d", workers, got, bound)
		}
	}
}

// The parallel default makes Workers > 1 the load-bearing path; these
// tests run the hairy interactions (SkipHeader, ErrStop, cancellation,
// portion skipping) under -race (the CI race job includes this package).

// writeHeadered produces a CSV with a header line and n data rows.
func writeHeadered(t *testing.T, n int) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("a1,a2,a3\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d,%d,%d\n", i, i*2, i*3)
	}
	path := filepath.Join(t.TempDir(), "headered.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestParallelSkipHeader: with many workers and many portions, exactly the
// data rows are tokenized — the header is consumed once, never delivered,
// and row ids are a permutation of 0..n-1.
func TestParallelSkipHeader(t *testing.T) {
	const rows = 5000
	path := writeHeadered(t, rows)
	s, err := Open(path, Options{Workers: 8, ChunkSize: 512, SkipHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := make(map[int64]int64)
	err = s.ScanColumns([]int{0}, func(rowID int64, fields []FieldRef) error {
		v, err := ParseInt64(fields[0].Bytes)
		if err != nil {
			return fmt.Errorf("row %d: %v (header leaked into data?)", rowID, err)
		}
		mu.Lock()
		got[rowID] = v
		mu.Unlock()
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != rows {
		t.Fatalf("tokenized %d rows, want %d", len(got), rows)
	}
	for id, v := range got {
		if id != v {
			t.Fatalf("row %d carries value %d; portion row numbering is off", id, v)
		}
	}
	if ports, err := s.Portions(); err != nil || len(ports) < 2 {
		t.Fatalf("expected a multi-portion layout, got %d portions (err=%v)", len(ports), err)
	}
}

// TestParallelErrStop: a handler returning ErrStop ends the scan cleanly;
// concurrent workers wind down without delivering the whole file.
func TestParallelErrStop(t *testing.T) {
	const rows = 50000
	path := writeRows(t, rows)
	s, err := Open(path, Options{Workers: 8, ChunkSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	var seen atomic.Int64
	err = s.ScanColumns([]int{0}, func(rowID int64, fields []FieldRef) error {
		if seen.Add(1) >= 100 {
			return ErrStop
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatalf("ErrStop surfaced as %v, want nil", err)
	}
	if got := s.RowsScanned(); got >= rows {
		t.Fatalf("ErrStop scan still tokenized all %d rows", got)
	}
}

// TestWorkCountsExact: portions count into their own tallies and flush
// once, so the shared counters come out identical at any worker count, and
// agree with RowsScanned on the early-exit paths too.
func TestWorkCountsExact(t *testing.T) {
	const rows = 20000
	path := writeRows(t, rows)
	abandon := func(idx int, f FieldRef) bool { return f.Bytes[len(f.Bytes)-1] == '7' }
	count := func(workers int) metrics.Snapshot {
		var c metrics.Counters
		s, err := Open(path, Options{Workers: workers, ChunkSize: 2048, Counters: &c})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ScanColumns([]int{1, 0}, func(int64, []FieldRef) error { return nil }, abandon); err != nil {
			t.Fatal(err)
		}
		return c.Snapshot()
	}
	seq, par := count(1), count(8)
	if seq.RowsTokenized != rows || seq.RowsAbandoned == 0 {
		t.Fatalf("sequential: rows=%d abandoned=%d", seq.RowsTokenized, seq.RowsAbandoned)
	}
	if seq.RowsTokenized != par.RowsTokenized || seq.AttrsTokenized != par.AttrsTokenized || seq.RowsAbandoned != par.RowsAbandoned {
		t.Fatalf("workers 1 vs 8 disagree: %v vs %v", seq, par)
	}

	stop := errors.New("handler failed")
	for _, tc := range []struct {
		name string
		err  error
	}{{"ErrStop", ErrStop}, {"error", stop}} {
		var c metrics.Counters
		s, err := Open(path, Options{Workers: 8, ChunkSize: 2048, Counters: &c})
		if err != nil {
			t.Fatal(err)
		}
		var seen atomic.Int64
		err = s.ScanColumns([]int{0}, func(int64, []FieldRef) error {
			if seen.Add(1) == 500 {
				return tc.err
			}
			return nil
		}, nil)
		if tc.err == stop && !errors.Is(err, stop) {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		got := c.Snapshot()
		if got.RowsTokenized != s.RowsScanned() || got.AttrsTokenized != got.RowsTokenized || got.RowsTokenized < 500 {
			t.Fatalf("%s: counters rows=%d attrs=%d, RowsScanned=%d", tc.name, got.RowsTokenized, got.AttrsTokenized, s.RowsScanned())
		}
	}
}

// TestParallelCancelDuringCountPass: cancellation during the row-count
// pre-pass (before any handler runs) surfaces the context error.
func TestParallelCancelDuringCountPass(t *testing.T) {
	const rows = 50000
	path := writeRows(t, rows)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the scan starts: the pre-pass must notice
	s, err := Open(path, Options{Workers: 8, ChunkSize: 2048, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	err = s.ScanColumns([]int{0}, func(rowID int64, fields []FieldRef) error {
		t.Error("handler ran under a cancelled context")
		return nil
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// TestParallelCancelMidScanWithHeader: cancellation raised from a handler
// stops all workers; SkipHeader and Workers > 1 compose.
func TestParallelCancelMidScanWithHeader(t *testing.T) {
	const rows = 50000
	path := writeHeadered(t, rows)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := Open(path, Options{Workers: 8, ChunkSize: 2048, SkipHeader: true, Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	err = s.ScanColumns([]int{1}, func(rowID int64, fields []FieldRef) error {
		once.Do(cancel)
		return nil
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if got := s.RowsScanned(); got >= rows {
		t.Fatalf("cancelled scan still tokenized all %d rows", got)
	}
}

// TestParallelPortionedHooks: Begin/End fire once per surviving portion,
// Skip prunes without reading, and per-portion row counts sum to the
// total — all under concurrent workers.
func TestParallelPortionedHooks(t *testing.T) {
	const rows = 20000
	path := writeRows(t, rows)
	s, err := Open(path, Options{Workers: 8, ChunkSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	ports, err := s.Portions()
	if err != nil {
		t.Fatal(err)
	}
	if len(ports) < 4 {
		t.Fatalf("want >= 4 portions, got %d", len(ports))
	}
	var mu sync.Mutex
	begun := map[int]bool{}
	ended := map[int]int64{}
	var handled atomic.Int64
	err = s.ScanColumnsPortioned([]int{0}, PortionFuncs{
		Skip: func(p PortionInfo) bool { return p.Index%2 == 1 },
		Begin: func(p PortionInfo) (RowHandler, AbandonFunc) {
			mu.Lock()
			begun[p.Index] = true
			mu.Unlock()
			return func(rowID int64, fields []FieldRef) error {
				handled.Add(1)
				return nil
			}, nil
		},
		End: func(p PortionInfo, n int64) error {
			mu.Lock()
			ended[p.Index] = n
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var survived, skippedRows int64
	for _, p := range ports {
		if p.Index%2 == 1 {
			skippedRows += p.Rows
			if begun[p.Index] {
				t.Fatalf("skipped portion %d saw Begin", p.Index)
			}
			continue
		}
		survived += p.Rows
		if !begun[p.Index] {
			t.Fatalf("surviving portion %d missed Begin", p.Index)
		}
		if ended[p.Index] != p.Rows {
			t.Fatalf("portion %d End rows = %d, want %d", p.Index, ended[p.Index], p.Rows)
		}
	}
	if handled.Load() != survived || s.RowsScanned() != survived {
		t.Fatalf("handled %d / scanned %d rows, want %d", handled.Load(), s.RowsScanned(), survived)
	}
	if s.RowsSkipped() != skippedRows || s.RowsScanned()+s.RowsSkipped() != rows {
		t.Fatalf("skipped %d rows, want %d (total %d)", s.RowsSkipped(), skippedRows, rows)
	}
}

// TestLayoutReuseSkipsPrePass: handing a learned layout back via
// Options.Layout must not re-run the boundary/count pre-pass and must
// reproduce identical portions.
func TestLayoutReuseSkipsPrePass(t *testing.T) {
	const rows = 20000
	path := writeRows(t, rows)
	s1, err := Open(path, Options{Workers: 4, ChunkSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	ports, err := s1.Portions()
	if err != nil {
		t.Fatal(err)
	}
	var c2 metrics.Counters
	s2, err := Open(path, Options{Workers: 4, ChunkSize: 2048, Layout: ports, Counters: &c2})
	if err != nil {
		t.Fatal(err)
	}
	ports2, err := s2.Portions()
	if err != nil {
		t.Fatal(err)
	}
	if read := c2.Snapshot().RawBytesRead; read != 0 {
		t.Fatalf("layout adoption read %d bytes; want 0 (no pre-pass)", read)
	}
	if len(ports2) != len(ports) {
		t.Fatalf("layout round trip changed portion count: %d vs %d", len(ports2), len(ports))
	}
	for i := range ports {
		if ports[i] != ports2[i] {
			t.Fatalf("portion %d differs: %+v vs %+v", i, ports[i], ports2[i])
		}
	}
}

// TestScanLinesMatchesColumns: ScanLines hands every row to its portion's
// line handler exactly once, whole — CR stripped, header skipped, the
// final unterminated row included — at the file offset and row id a
// column scan reports, and counts the rows and bytes a column scan does.
func TestScanLinesMatchesColumns(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("x,y\n")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&sb, "%d,%d\r\n", i, i*3)
	}
	sb.WriteString("5000,15000")
	path := writeFile(t, sb.String())
	for _, workers := range []int{1, 4} {
		opts := Options{Workers: workers, ChunkSize: 4096, SkipHeader: true, Portioned: true}
		var cc, lc metrics.Counters
		want := make([]string, 5001)
		opts.Counters = &cc
		sc, err := Open(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.ScanColumns(nil, func(row int64, f []FieldRef) error {
			want[row] = fmt.Sprintf("%d:%s,%s", f[0].Offset, f[0].Bytes, f[1].Bytes)
			return nil
		}, nil); err != nil {
			t.Fatal(err)
		}
		got := make([]string, 5001)
		var ends atomic.Int64
		opts.Counters = &lc
		sl, err := Open(path, opts)
		if err != nil {
			t.Fatal(err)
		}
		err = sl.ScanLines(PortionFuncs{
			Lines: func(p PortionInfo) LineHandler {
				return func(row, off int64, line []byte) error {
					if row < p.FirstRow || row >= p.FirstRow+p.Rows || got[row] != "" {
						return fmt.Errorf("row %d outside portion %+v or seen twice", row, p)
					}
					got[row] = fmt.Sprintf("%d:%s", off, line)
					return nil
				}
			},
			End: func(p PortionInfo, rows int64) error {
				ends.Add(rows)
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers %d row %d: line %q, want %q", workers, i, got[i], want[i])
			}
		}
		c, l := cc.Snapshot(), lc.Snapshot()
		if ends.Load() != 5001 || l.RowsTokenized != c.RowsTokenized || l.RawBytesRead != c.RawBytesRead || l.AttrsTokenized != 0 {
			t.Fatalf("workers %d: %d rows ended; lines %v, columns %v", workers, ends.Load(), l, c)
		}
	}
}
