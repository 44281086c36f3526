package loader

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"testing"

	"nodb/internal/catalog"
	"nodb/internal/csvgen"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/storage"
)

// csvFields reads attribute col of every row of a headerless, unquoted
// CSV file of ints: each field's file offset and its value.
func csvFields(t *testing.T, path string, col int) (offs, vals []int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for at := 0; at < len(data); {
		end := at + bytes.IndexByte(data[at:], '\n')
		off := at
		for range col {
			off += bytes.IndexByte(data[off:end], ',') + 1
		}
		n := bytes.IndexByte(data[off:end], ',')
		if n < 0 {
			n = end - off
		}
		v, err := strconv.ParseInt(string(data[off:off+n]), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		offs, vals = append(offs, int64(off)), append(vals, v)
		at = end + 1
	}
	return offs, vals
}

// TestPartialPassForms: the buffered and the streamed form of a partial
// pass are one pass with two drains. At any worker count, with a learned
// layout whose synopsis prunes portions or without one, and with early
// abandon or a late filter, the streamed rows equal the buffered View's,
// the View is in row order, both equal a filter over a column load of the
// same file, and both do the same tokenizing and parsing work.
func TestPartialPassForms(t *testing.T) {
	const rows = 20000
	spec := csvgen.Spec{Rows: rows, Cols: 5, Seed: 41, ColSpecs: []csvgen.ColSpec{3: {Kind: csvgen.SequentialInts}}}
	path := writeGen(t, spec)
	cols := []int{0, 1, 3} // the predicates' columns among them: the stream emits every loaded column
	conj := expr.Conjunction{Preds: []expr.Pred{
		{Col: 3, Op: expr.Ge, Val: storage.IntValue(5000)},
		{Col: 3, Op: expr.Lt, Val: storage.IntValue(12000)},
		{Col: 0, Op: expr.Lt, Val: storage.IntValue(8000)},
	}}

	// The oracle: a column load, filtered row by row.
	full, fc := linkFresh(t, path, catalog.Options{})
	if err := (&Loader{Counters: fc}).ColumnLoadContext(context.Background(), full, cols); err != nil {
		t.Fatal(err)
	}
	var wantRows []int64
	var want [][3]int64
	for r := range rows {
		ok := conj.EvalRow(func(c int) storage.Value { return full.Dense(c).Value(r) })
		if ok {
			wantRows = append(wantRows, int64(r))
			want = append(want, [3]int64{full.Dense(0).Int(r), full.Dense(1).Int(r), full.Dense(3).Int(r)})
		}
	}
	if len(want) == 0 || len(want) == rows {
		t.Fatalf("the predicate keeps %d of %d rows, want a selective one", len(want), rows)
	}
	sorted := slices.Clone(want)
	slices.SortFunc(sorted, func(a, b [3]int64) int { return cmp.Compare(a[0], b[0]) })

	for _, workers := range []int{1, 2, 8} {
		for _, learned := range []bool{false, true} {
			for _, late := range []bool{false, true} {
				name := fmt.Sprintf("workers=%d/learned=%v/late=%v", workers, learned, late)
				t.Run(name, func(t *testing.T) {
					// run makes the measured pass of one form on a fresh
					// table, after a learning pass when the layout is
					// learned, and returns the pass' work.
					run := func(pass func(*Loader, *catalog.Table) error) metrics.Snapshot {
						tab, c := linkFresh(t, path, catalog.Options{})
						l := &Loader{Counters: c, Workers: workers, ChunkSize: 4096, RecordPositions: true, UseSynopsis: learned}
						if learned {
							// Every row survives: every portion learns bounds.
							if _, err := l.PartialScanContext(context.Background(), tab, cols, expr.Conjunction{}, 0); err != nil {
								t.Fatal(err)
							}
						}
						l.DisableEarlyAbandon = late
						before := c.Snapshot()
						if err := pass(l, tab); err != nil {
							t.Fatal(err)
						}
						w := c.Snapshot().Sub(before)
						if learned && w.PortionsSkipped == 0 {
							t.Fatal("the learned synopsis pruned no portion")
						}
						return w
					}

					var view *exec.View
					vw := run(func(l *Loader, tab *catalog.Table) (err error) {
						view, err = l.PartialScanContext(context.Background(), tab, cols, conj, 0)
						return err
					})
					if !slices.Equal(view.Rows, wantRows) {
						t.Fatalf("View rows: %d, want the %d qualifying rows in order", len(view.Rows), len(wantRows))
					}
					for i := range want {
						got := [3]int64{
							view.Col(exec.ColKey{Col: 0}).Int(i),
							view.Col(exec.ColKey{Col: 1}).Int(i),
							view.Col(exec.ColKey{Col: 3}).Int(i),
						}
						if got != want[i] {
							t.Fatalf("View row %d = %v, want %v", view.Rows[i], got, want[i])
						}
					}

					var mu sync.Mutex
					var streamed [][3]int64
					sw := run(func(l *Loader, tab *catalog.Table) error {
						return l.ScanBatchesContext(context.Background(), tab, cols, conj, 0, 256, func(b *exec.Batch) error {
							mu.Lock()
							defer mu.Unlock()
							for i := range b.N {
								streamed = append(streamed, [3]int64{
									b.Col(exec.ColKey{Col: 0}).Int(i),
									b.Col(exec.ColKey{Col: 1}).Int(i),
									b.Col(exec.ColKey{Col: 3}).Int(i),
								})
							}
							return nil
						})
					})
					slices.SortFunc(streamed, func(a, b [3]int64) int { return cmp.Compare(a[0], b[0]) })
					if !slices.Equal(streamed, sorted) {
						t.Fatalf("streamed %d rows, want the View's %d", len(streamed), len(sorted))
					}

					if vw.AttrsTokenized != sw.AttrsTokenized || vw.ValuesParsed != sw.ValuesParsed {
						t.Fatalf("work differs: buffered %d attrs, %d values; streamed %d attrs, %d values",
							vw.AttrsTokenized, vw.ValuesParsed, sw.AttrsTokenized, sw.ValuesParsed)
					}
				})
			}
		}
	}
}

// TestPartialScanAllocsPerRow: a partial scan parses qualifying rows into
// each portion's typed vectors, so a warm 10 %-selective pass allocates
// per portion and per vector growth, not per qualifying row.
func TestPartialScanAllocsPerRow(t *testing.T) {
	const rows = 100_000
	path := writeGen(t, csvgen.Spec{Rows: rows, Cols: 4, Seed: 1})
	tab, c := linkFresh(t, path, catalog.Options{})
	l := &Loader{Counters: c, RecordPositions: true, UseSynopsis: true}
	conj := expr.Conjunction{Preds: []expr.Pred{
		{Col: 0, Op: expr.Gt, Val: storage.IntValue(rows / 5)},
		{Col: 0, Op: expr.Lt, Val: storage.IntValue(rows/5 + rows/10)},
	}}
	var n int
	scan := func() {
		v, err := l.PartialScanContext(context.Background(), tab, []int{0, 1}, conj, 0)
		if err != nil {
			t.Fatal(err)
		}
		n = v.Len()
	}
	scan() // the cold pass learns the layout and the positions
	allocs := testing.AllocsPerRun(3, scan)
	if n < rows/11 || n > rows/9 {
		t.Fatalf("%d rows qualify, want about 10 %% of %d", n, rows)
	}
	if allocs >= rows/50 {
		t.Fatalf("a warm pass keeping %d rows allocated %.0f times, want < %d", n, allocs, rows/50)
	}
}

// TestPartialPassPositions: a partial pass records the positions of the
// rows it keeps. With no predicate that is every row, each field at the
// file's offset, sealed into the bytes a column load's map takes; a
// selective pass records exactly the qualifying rows, and a stream
// stopped early the rows it handed over.
func TestPartialPassPositions(t *testing.T) {
	const rows = 70_000 // one sequential portion records its positions in two batches
	path := writeGen(t, csvgen.Spec{Rows: rows, Cols: 5, Seed: 43})
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			loader := func(c *metrics.Counters) *Loader {
				return &Loader{Counters: c, Workers: workers, ChunkSize: 4096, RecordPositions: true, UseSynopsis: workers > 1}
			}
			cols := []int{1, 3}
			tab, c := linkFresh(t, path, catalog.Options{})
			if _, err := loader(c).PartialScanContext(context.Background(), tab, cols, expr.Conjunction{}, 0); err != nil {
				t.Fatal(err)
			}
			for _, col := range cols {
				wantOffs, _ := csvFields(t, path, col)
				gotRows, gotOffs := tab.PosMap.Pairs(col)
				if !tab.PosMap.Covers(col, 0, rows) || len(gotRows) != rows || !slices.Equal(gotOffs, wantOffs) {
					t.Fatalf("a%d: the map holds %d positions, want the file's %d field offsets", col+1, len(gotRows), rows)
				}
			}
			twin, tc := linkFresh(t, path, catalog.Options{})
			if err := loader(tc).ColumnLoadContext(context.Background(), twin, cols); err != nil {
				t.Fatal(err)
			}
			// Four column slots (cols 0..3) and, per column, an index
			// slot, a base and stride per block, 2 B per row and one 48 B
			// coverage interval.
			blocks := int64(rows+1023) / 1024
			sealed := 4*8 + int64(len(cols))*(blocks*(8+16)+2*rows+48)
			if got, want := tab.PosMap.MemSize(), twin.PosMap.MemSize(); got != want || got != sealed {
				t.Fatalf("the partial pass' map takes %d B, a column load's %d B, want both %d (sealed)", got, want, sealed)
			}

			// A selective pass records the qualifying rows only.
			tab, c = linkFresh(t, path, catalog.Options{})
			conj := expr.Conjunction{Preds: []expr.Pred{{Col: 0, Op: expr.Lt, Val: storage.IntValue(rows / 10)}}}
			if _, err := loader(c).PartialScanContext(context.Background(), tab, []int{2}, conj, 0); err != nil {
				t.Fatal(err)
			}
			_, a1 := csvFields(t, path, 0)
			for _, col := range []int{0, 2} {
				offs, _ := csvFields(t, path, col)
				var wantRows, wantOffs []int64
				for r, v := range a1 {
					if v < rows/10 {
						wantRows, wantOffs = append(wantRows, int64(r)), append(wantOffs, offs[r])
					}
				}
				gotRows, gotOffs := tab.PosMap.Pairs(col)
				if !slices.Equal(gotRows, wantRows) || !slices.Equal(gotOffs, wantOffs) {
					t.Fatalf("a%d: the map holds %d positions, want the %d qualifying rows'", col+1, len(gotRows), len(wantRows))
				}
			}

			// A stream its consumer stops at the first batch keeps the
			// positions of the rows that batch was parsed from.
			tab, c = linkFresh(t, path, catalog.Options{})
			stop := errors.New("stop")
			err := loader(c).ScanBatchesContext(context.Background(), tab, []int{2}, expr.Conjunction{}, 0, 100, func(*exec.Batch) error { return stop })
			if err != stop || tab.PosMap.Entries() < 100 || workers == 1 && !tab.PosMap.Covers(2, 0, 100) {
				t.Fatalf("stopped stream: err %v, %d positions kept, want the first batch's 100", err, tab.PosMap.Entries())
			}
		})
	}
}
