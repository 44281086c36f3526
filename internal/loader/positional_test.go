package loader

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing"

	"nodb/internal/catalog"
	"nodb/internal/csvgen"
	"nodb/internal/expr"
	"nodb/internal/govern"
	"nodb/internal/metrics"
	"nodb/internal/vfs"
)

// hookFS runs hook once, just before the first read of the raw file at or
// past offset at.
type hookFS struct {
	vfs.FS
	at   int64
	once sync.Once
	hook func()
}

func (h *hookFS) Open(name string) (vfs.File, error) {
	f, err := h.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &hookFile{File: f, fs: h}, nil
}

type hookFile struct {
	vfs.File
	fs *hookFS
}

func (f *hookFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= f.fs.at {
		f.fs.once.Do(f.fs.hook)
	}
	return f.File.ReadAt(p, off)
}

// TestPositionalLoadNDJSONReadsOnce: a positional load of three NDJSON
// columns jumps to each one's recorded value token in one pass over the
// file, and loads the same values a plain load of the CSV twin does.
func TestPositionalLoadNDJSONReadsOnce(t *testing.T) {
	const rows = 20000
	spec := csvgen.Spec{Rows: rows, Cols: 6, Seed: 21}
	csvPath := writeGen(t, spec)
	spec.Format = csvgen.FormatNDJSON
	jsonPath := filepath.Join(t.TempDir(), "g.ndjson")
	if err := csvgen.WriteFile(jsonPath, spec); err != nil {
		t.Fatal(err)
	}
	cols := []int{1, 3, 4}
	twin, tc := linkFresh(t, csvPath, catalog.Options{})
	if err := (&Loader{Counters: tc}).ColumnLoadContext(context.Background(), twin, cols); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct {
		workers  int
		synopsis bool // a learned layout: a parallel pass; otherwise one stream
	}{{1, false}, {4, true}} {
		tab, c := linkFresh(t, jsonPath, catalog.Options{})
		l := &Loader{Counters: c, Workers: cfg.workers, ChunkSize: 64 << 10, RecordPositions: true, UsePositions: true, UseSynopsis: cfg.synopsis}
		// A partial scan records the columns' positions and loads nothing.
		if _, err := l.PartialScanContext(context.Background(), tab, cols, expr.Conjunction{}, 0); err != nil {
			t.Fatal(err)
		}
		before := c.Snapshot()
		if err := l.ColumnLoadContext(context.Background(), tab, cols); err != nil {
			t.Fatal(err)
		}
		w := c.Snapshot().Sub(before)
		size := tab.Signature().Size
		if w.RawBytesRead != size {
			t.Errorf("%+v: RawBytesRead = %d, want %d (the file once)", cfg, w.RawBytesRead, size)
		}
		if w.PosMapHits != 3*rows || w.RowsTokenized != rows || w.AttrsTokenized != 3*rows || w.ValuesParsed != 3*rows {
			t.Errorf("%+v: work %v, want %d posmap hits, %d rows, %d attrs and values", cfg, w, 3*rows, rows, 3*rows)
		}
		for _, col := range cols {
			if a, b := tab.Dense(col), twin.Dense(col); a == nil || !slices.Equal(a.Int64s(), b.Int64s()) {
				t.Fatalf("%+v: col %d differs from the CSV twin", cfg, col)
			}
		}
	}
}

// TestPositionalLoadFailuresInstallNothing: whatever stops a positional
// load mid-pass — a read error, the positional map dropped between
// portions, a cancelled context — it installs no dense column and no
// positions and holds no governor bytes; the load then falls back to the
// plain scan, which answers or reports the typed error.
func TestPositionalLoadFailuresInstallNothing(t *testing.T) {
	const rows = 20000
	path := writeGen(t, csvgen.Spec{Rows: rows, Cols: 6, Seed: 22})
	cols := []int{2, 4}
	twin, tc := linkFresh(t, path, catalog.Options{})
	if err := (&Loader{Counters: tc}).ColumnLoadContext(context.Background(), twin, cols); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		// arm sets the failure up; half is the offset of the middle
		// portion, the first byte the pass reads there.
		arm     func(ffs *vfs.FaultFS, hfs *hookFS, tab *catalog.Table, cancel func(), half int64)
		wantErr error // nil: the plain scan answers
	}{
		{"EIO", func(ffs *vfs.FaultFS, _ *hookFS, tab *catalog.Table, _ func(), half int64) {
			ffs.AddRule(vfs.Rule{Op: vfs.OpRead, PathContains: "g.csv", Err: syscall.EIO, AfterBytes: half, Times: -1})
		}, syscall.EIO},
		{"EIO once", func(ffs *vfs.FaultFS, _ *hookFS, tab *catalog.Table, _ func(), half int64) {
			ffs.AddRule(vfs.Rule{Op: vfs.OpRead, PathContains: "g.csv", Err: syscall.EIO, AfterBytes: half})
		}, nil},
		{"posmap dropped", func(_ *vfs.FaultFS, hfs *hookFS, tab *catalog.Table, _ func(), half int64) {
			hfs.at, hfs.hook = half, tab.PosMap.Drop
		}, nil},
		{"cancelled", func(_ *vfs.FaultFS, hfs *hookFS, _ *catalog.Table, cancel func(), half int64) {
			hfs.at, hfs.hook = half, cancel
		}, context.Canceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ffs := vfs.NewFaultFS(nil)
			hfs := &hookFS{FS: ffs, at: 1 << 62, hook: func() {}}
			gov := govern.New(0, nil, nil)
			tab, c := linkFresh(t, path, catalog.Options{FS: hfs, Governor: gov})
			l := &Loader{Counters: c, Workers: 1, ChunkSize: 16 << 10, RecordPositions: true, UsePositions: true, UseSynopsis: true, FS: hfs}
			if err := l.ColumnLoadContext(context.Background(), tab, []int{0, 1}); err != nil { // anchor a2
				t.Fatal(err)
			}
			layout := tab.Syn.Layout()
			if len(layout) < 8 {
				t.Fatalf("%d portions, want >= 8", len(layout))
			}
			half := layout[len(layout)/2].Off
			pmBytes, used := tab.PosMap.MemSize(), gov.Used()-tab.Syn.MemSize()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tc.arm(ffs, hfs, tab, cancel, half)
			before := c.Snapshot()

			err := l.ColumnLoadContext(ctx, tab, cols)
			w := c.Snapshot().Sub(before)
			if w.PosMapHits != 0 {
				t.Errorf("a failed positional pass counted %d posmap hits", w.PosMapHits)
			}
			// The positional pass parsed some rows, not all, before it
			// failed; a plain pass that answers parsed every row again.
			n := w.ValuesParsed
			if tc.wantErr == nil {
				n -= 2 * rows
			}
			if n <= 0 || n >= 2*rows {
				t.Errorf("the positional pass parsed %d values before failing, want 0 < n < %d", n, 2*rows)
			}
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("load error = %v, want %v", err, tc.wantErr)
				}
				for _, col := range cols {
					if tab.Dense(col) != nil {
						t.Errorf("col %d: a failed load installed a dense column", col)
					}
					if tab.PosMap.Covers(col, 0, 1) {
						t.Errorf("col %d: a failed load installed positions", col)
					}
				}
				if got := tab.PosMap.MemSize(); got != pmBytes {
					t.Errorf("posmap bytes %d -> %d across a failed load", pmBytes, got)
				}
				if got := gov.Used() - tab.Syn.MemSize(); got != used {
					t.Errorf("governor bytes %d -> %d across a failed load (synopsis bounds aside)", used, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("the plain scan should answer: %v", err)
			}
			// The plain pass re-tokenized every row from its start.
			if want := int64(rows * (cols[len(cols)-1] + 1)); w.AttrsTokenized < want {
				t.Errorf("AttrsTokenized = %d, want >= %d: the plain scan did not run", w.AttrsTokenized, want)
			}
			for _, col := range cols {
				if a, b := tab.Dense(col), twin.Dense(col); a == nil || !slices.Equal(a.Int64s(), b.Int64s()) {
					t.Fatalf("col %d differs from a plain load", col)
				}
			}
		})
	}
}

// BenchmarkPositionalColumnLoad compares a positional load of (a4,a5),
// jumping to a3's recorded position in every row, with a plain load of
// the same columns, both over the layout the warm-up load learned.
func BenchmarkPositionalColumnLoad(b *testing.B) {
	path := filepath.Join(b.TempDir(), "g.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 200_000, Cols: 8, Seed: 23}); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	for _, positional := range []bool{true, false} {
		name := "plain"
		if positional {
			name = "positional"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(st.Size())
			var c metrics.Counters
			for range b.N {
				b.StopTimer()
				tab, err := catalog.New(catalog.Options{Counters: &c}).Link("G", path)
				if err != nil {
					b.Fatal(err)
				}
				l := &Loader{Counters: &c, RecordPositions: true, UsePositions: true, UseSynopsis: true}
				if err := l.ColumnLoadContext(context.Background(), tab, []int{0, 2}); err != nil {
					b.Fatal(err)
				}
				l.UsePositions = positional
				b.StartTimer()
				if err := l.ColumnLoadContext(context.Background(), tab, []int{3, 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
