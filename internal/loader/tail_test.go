package loader

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"nodb/internal/catalog"
	"nodb/internal/csvgen"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/schema"
	"nodb/internal/storage"
)

func appendFile(t *testing.T, path, content string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(content); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRevalidateGrowthExtendsState: with the loader's tail pass wired
// into the catalog, appending rows extends the loaded state over the tail
// instead of dropping it.
func TestRevalidateGrowthExtendsState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.csv")
	if err := os.WriteFile(path, []byte("1,2\n3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := catalog.New(catalog.Options{TailPass: (&Loader{RecordPositions: true}).ExtendTail})
	tab, err := c.Link("R", path)
	if err != nil {
		t.Fatal(err)
	}

	d := storage.NewDense(schema.Int64, 2)
	d.Ints = append(d.Ints, 1, 3)
	tab.SetDense(0, d)
	tab.SetNumRows(2)
	tab.PosMap.Record(0, 0, 0)
	tab.PosMap.Record(0, 1, 4)
	baseEntries := tab.PosMap.Entries()

	appendFile(t, path, "5,6\n7,8\n")
	changed, err := tab.Revalidate()
	if err != nil || !changed {
		t.Fatalf("growth revalidate: changed=%v err=%v", changed, err)
	}

	if got := tab.NumRows(); got != 4 {
		t.Errorf("rows after growth = %d, want 4", got)
	}
	ext := tab.Dense(0)
	if ext == nil {
		t.Fatal("dense column dropped by growth")
	}
	if len(ext.Ints) != 4 || ext.Ints[2] != 5 || ext.Ints[3] != 7 {
		t.Errorf("dense after growth = %v, want [1 3 5 7]", ext.Ints)
	}
	if tab.Dense(1) != nil {
		t.Error("unloaded column materialized by growth")
	}
	if got := tab.PosMap.Entries(); got <= baseEntries {
		t.Errorf("posmap entries = %d, want > %d (appended rows recorded)", got, baseEntries)
	}
	// The tail's positions land as one run starting at the old row count.
	if rows, offs := tab.PosMap.Pairs(0); !slices.Equal(rows, []int64{0, 1, 2, 3}) || !slices.Equal(offs, []int64{0, 4, 8, 12}) {
		t.Errorf("col 0 positions after growth = %v @ %v, want rows 0..3 @ 0,4,8,12", rows, offs)
	}
	if !tab.PosMap.Covers(0, 0, 4) {
		t.Error("col 0 coverage should span the grown table")
	}
	ing := tab.Ingest()
	if ing.AppendedRows != 2 || ing.Refreshes != 1 || ing.AppendedBytes != 8 {
		t.Errorf("ingest stats = %+v, want 2 rows / 8 bytes / 1 refresh", ing)
	}

	// The recorded signature must now describe the grown file, so an
	// immediate re-check is a no-op.
	if changed, err := tab.Revalidate(); err != nil || changed {
		t.Errorf("second revalidate after growth: changed=%v err=%v", changed, err)
	}
}

// TestExtendTailRowsOnly: a table that learned only its row count still
// grows — the tail pass tokenizes no attribute and counts the rows.
func TestExtendTailRowsOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.csv")
	if err := os.WriteFile(path, []byte("1,2\n3,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var c metrics.Counters
	l := &Loader{Counters: &c}
	tab, err := catalog.New(catalog.Options{Counters: &c, TailPass: l.ExtendTail}).Link("R", path)
	if err != nil {
		t.Fatal(err)
	}
	tab.SetNumRows(2)
	appendFile(t, path, "5,6\n7,8\n9,10\n")
	before := c.Snapshot()
	if changed, err := tab.Revalidate(); err != nil || !changed {
		t.Fatalf("growth revalidate: changed=%v err=%v", changed, err)
	}
	w := c.Snapshot().Sub(before)
	if got := tab.NumRows(); got != 5 {
		t.Errorf("rows after growth = %d, want 5", got)
	}
	if ing := tab.Ingest(); ing.AppendedRows != 3 || ing.Refreshes != 1 {
		t.Errorf("ingest stats = %+v, want 3 rows in 1 refresh", ing)
	}
	if w.RowsTokenized != 3 || w.AttrsTokenized != 0 || w.ValuesParsed != 0 {
		t.Errorf("tail work = %d rows, %d attrs, %d values; want 3, 0, 0", w.RowsTokenized, w.AttrsTokenized, w.ValuesParsed)
	}
}

// TestExtendTailMatchesColdLoad: every structure a tail pass extends —
// dense columns, positions, the synopsis, a coverage region and split
// files — answers over the grown file like a cold load of it, and the
// pass parses each tail value it tokenizes exactly once.
func TestExtendTailMatchesColdLoad(t *testing.T) {
	const rows, prefixRows = 6000, 5400
	dir := t.TempDir()
	full := filepath.Join(dir, "full.csv")
	if err := csvgen.WriteFile(full, csvgen.Spec{Rows: rows, Cols: 4, Seed: 31}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	cut := 0
	for range prefixRows {
		cut += bytes.IndexByte(data[cut:], '\n') + 1
	}
	path := filepath.Join(dir, "g.csv")
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	var c metrics.Counters
	l := &Loader{Counters: &c, Workers: 2, ChunkSize: 16 << 10, RecordPositions: true, UsePositions: true, UseSynopsis: true}
	tab, err := catalog.New(catalog.Options{Counters: &c, SplitDir: filepath.Join(dir, "splits"), TailPass: l.ExtendTail}).Link("G", path)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	conj := expr.Conjunction{Preds: []expr.Pred{
		{Col: 0, Op: expr.Gt, Val: storage.IntValue(rows / 4)},
		{Col: 0, Op: expr.Lt, Val: storage.IntValue(rows / 2)},
	}}
	if err := l.ColumnLoadContext(ctx, tab, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PartialLoadV2Context(ctx, tab, []int{2}, conj, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.SplitColumnLoadContext(ctx, tab, []int{3}); err != nil {
		t.Fatal(err)
	}
	portions := len(tab.Syn.Export())
	if portions < 2 {
		t.Fatalf("%d synopsis portions, want a learned layout", portions)
	}

	appendFile(t, path, string(data[cut:]))
	before := c.Snapshot()
	if changed, err := tab.Revalidate(); err != nil || !changed {
		t.Fatalf("growth revalidate: changed=%v err=%v", changed, err)
	}
	w := c.Snapshot().Sub(before)
	if ing := tab.Ingest(); ing.Refreshes != 1 || ing.AppendedRows != rows-prefixRows {
		t.Fatalf("ingest stats = %+v, want %d rows in 1 refresh", ing, rows-prefixRows)
	}
	// Split files re-serialize whole rows, so every column is tokenized.
	if want := int64(4 * (rows - prefixRows)); w.AttrsTokenized != want || w.ValuesParsed != want {
		t.Errorf("tail pass tokenized %d attrs and parsed %d values, want %d each", w.AttrsTokenized, w.ValuesParsed, want)
	}

	cold, err := catalog.New(catalog.Options{}).Link("C", path)
	if err != nil {
		t.Fatal(err)
	}
	lc := &Loader{}
	if err := lc.ColumnLoadContext(ctx, cold, []int{0, 1, 3}); err != nil {
		t.Fatal(err)
	}
	for _, col := range []int{0, 1, 3} {
		if got, want := tab.Dense(col), cold.Dense(col); got == nil || !slices.Equal(got.Ints, want.Ints) {
			t.Errorf("col %d differs from a cold load of the grown file", col)
		}
	}
	for _, col := range []int{0, 1} {
		if !tab.PosMap.Covers(col, 0, rows) {
			t.Errorf("col %d positions do not cover the grown table", col)
		}
	}
	if got := len(tab.Syn.Export()); got != portions+1 {
		t.Errorf("synopsis portions %d -> %d, want one tail portion", portions, got)
	}
	side, ok := tab.Splits.Manifest().Sidecars[3]
	if !ok {
		t.Fatal("col 3 sidecar dropped by growth")
	}
	if b, err := os.ReadFile(side); err != nil {
		t.Fatal(err)
	} else if n := bytes.Count(b, []byte("\n")); n != rows {
		t.Errorf("col 3 sidecar has %d rows, want %d", n, rows)
	}

	// The grown region serves the query from the store, like a cold scan.
	before = c.Snapshot()
	got, err := l.PartialLoadV2Context(ctx, tab, []int{2}, conj, 0)
	if err != nil {
		t.Fatal(err)
	}
	if raw := c.Snapshot().Sub(before).RawBytesRead; raw != 0 {
		t.Errorf("covered query read %d raw bytes, want 0", raw)
	}
	want, err := lc.PartialScanContext(ctx, cold, []int{2}, conj, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("grown region holds %d rows, a cold scan finds %d", got.Len(), want.Len())
	}
	for _, col := range []int{0, 2} {
		k := exec.ColKey{Col: col}
		if !slices.Equal(got.Col(k).Ints, want.Col(k).Ints) {
			t.Errorf("col %d: grown region values differ from a cold scan", col)
		}
	}
}
