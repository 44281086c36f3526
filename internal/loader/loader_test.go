package loader

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/catalog"
	"nodb/internal/csvgen"
	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/metrics"
	"nodb/internal/storage"
)

// testTable materializes content into a CSV and links it.
func testTable(t *testing.T, content string, opts catalog.Options) (*catalog.Table, *metrics.Counters) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var c metrics.Counters
	opts.Counters = &c
	if opts.SplitDir == "" {
		opts.SplitDir = filepath.Join(dir, "splits")
	}
	cat := catalog.New(opts)
	tab, err := cat.Link("T", path)
	if err != nil {
		t.Fatal(err)
	}
	return tab, &c
}

// genTable links a generated CSV.
func genTable(t *testing.T, spec csvgen.Spec, opts catalog.Options) (*catalog.Table, *metrics.Counters) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csv")
	if err := csvgen.WriteFile(path, spec); err != nil {
		t.Fatal(err)
	}
	var c metrics.Counters
	opts.Counters = &c
	if opts.SplitDir == "" {
		opts.SplitDir = filepath.Join(dir, "splits")
	}
	cat := catalog.New(opts)
	tab, err := cat.Link("G", path)
	if err != nil {
		t.Fatal(err)
	}
	return tab, &c
}

const smallCSV = "10,100,1000,5\n20,200,2000,6\n30,300,3000,7\n40,400,4000,8\n"

func TestColumnLoad(t *testing.T) {
	tab, c := testTable(t, smallCSV, catalog.Options{})
	l := &Loader{Counters: c}
	if err := l.ColumnLoadContext(context.Background(), tab, []int{0, 2}); err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 4 {
		t.Errorf("rows = %d", tab.NumRows())
	}
	d0, d2 := tab.Dense(0), tab.Dense(2)
	if d0 == nil || d2 == nil {
		t.Fatal("columns not loaded")
	}
	if d0.Ints[0] != 10 || d0.Ints[3] != 40 {
		t.Errorf("col 0 = %v", d0.Ints)
	}
	if d2.Ints[1] != 2000 {
		t.Errorf("col 2 = %v", d2.Ints)
	}
	if tab.Dense(1) != nil || tab.Dense(3) != nil {
		t.Error("unrequested columns should not load")
	}
}

func TestColumnLoadCacheHit(t *testing.T) {
	tab, c := testTable(t, smallCSV, catalog.Options{})
	l := &Loader{Counters: c}
	if err := l.ColumnLoadContext(context.Background(), tab, []int{0}); err != nil {
		t.Fatal(err)
	}
	before := c.Snapshot()
	if err := l.ColumnLoadContext(context.Background(), tab, []int{0}); err != nil {
		t.Fatal(err)
	}
	delta := c.Snapshot().Sub(before)
	if delta.RawBytesRead != 0 {
		t.Errorf("cached column load read %d raw bytes", delta.RawBytesRead)
	}
	if delta.CacheHits != 1 {
		t.Errorf("CacheHits delta = %d", delta.CacheHits)
	}
}

func TestFullLoad(t *testing.T) {
	tab, c := testTable(t, smallCSV, catalog.Options{})
	l := &Loader{Counters: c}
	if err := l.FullLoadContext(context.Background(), tab); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if tab.Dense(i) == nil {
			t.Errorf("col %d not loaded by FullLoad", i)
		}
	}
	if s := c.Snapshot(); s.InternalBytesWritten == 0 {
		t.Error("loading should model binary-store writes")
	}
}

func TestColumnLoadFloatsAndStrings(t *testing.T) {
	tab, c := testTable(t, "1,2.5,abc\n2,3.5,def\n", catalog.Options{})
	l := &Loader{Counters: c}
	if err := l.FullLoadContext(context.Background(), tab); err != nil {
		t.Fatal(err)
	}
	if tab.Dense(1).Floats[1] != 3.5 {
		t.Errorf("float col = %v", tab.Dense(1).Floats)
	}
	if tab.Dense(2).Strs[0] != "abc" {
		t.Errorf("string col = %v", tab.Dense(2).Strs)
	}
}

func TestDenseSourceFor(t *testing.T) {
	tab, c := testTable(t, smallCSV, catalog.Options{})
	l := &Loader{Counters: c}
	if _, err := DenseSourceFor(tab, []int{0}, nil); err == nil {
		t.Error("unloaded column should error")
	}
	if err := l.ColumnLoadContext(context.Background(), tab, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	src, err := DenseSourceFor(tab, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if src.NumRows != 4 || src.Columns[1].Ints[2] != 300 {
		t.Errorf("source = %+v", src)
	}
}

func q2Conj(loLo, loHi, hiLo, hiHi int64) expr.Conjunction {
	return expr.Conjunction{Preds: []expr.Pred{
		{Col: 0, Op: expr.Gt, Val: storage.IntValue(loLo)},
		{Col: 0, Op: expr.Lt, Val: storage.IntValue(loHi)},
		{Col: 1, Op: expr.Gt, Val: storage.IntValue(hiLo)},
		{Col: 1, Op: expr.Lt, Val: storage.IntValue(hiHi)},
	}}
}

func TestPartialScan(t *testing.T) {
	// Rows: (10,100) (20,200) (30,300) (40,400); predicate selects rows
	// with a1 in (15,45) and a2 in (150,350) → rows 1,2.
	tab, c := testTable(t, smallCSV, catalog.Options{})
	l := &Loader{Counters: c}
	conj := q2Conj(15, 45, 150, 350)
	v, err := l.PartialScanContext(context.Background(), tab, []int{0, 1}, conj, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Fatalf("view Len = %d, want 2", v.Len())
	}
	if v.Rows[0] != 1 || v.Rows[1] != 2 {
		t.Errorf("rows = %v", v.Rows)
	}
	col0 := v.Col(exec.ColKey{Tab: 0, Col: 0})
	if col0.Ints[0] != 20 || col0.Ints[1] != 30 {
		t.Errorf("col0 = %v", col0.Ints)
	}
	// V1 semantics: nothing retained.
	if tab.Sparse(0, false) != nil || tab.Dense(0) != nil {
		t.Error("PartialScan must not store data")
	}
	if s := c.Snapshot(); s.RowsAbandoned == 0 {
		t.Error("non-qualifying rows should be abandoned early")
	}
}

func TestPartialScanProjectionBeyondPredicates(t *testing.T) {
	// Aggregate over col 3 with predicates on 0 and 1.
	tab, c := testTable(t, smallCSV, catalog.Options{})
	l := &Loader{Counters: c}
	conj := q2Conj(15, 45, 150, 350)
	v, err := l.PartialScanContext(context.Background(), tab, []int{3}, conj, 0)
	if err != nil {
		t.Fatal(err)
	}
	col3 := v.Col(exec.ColKey{Tab: 0, Col: 3})
	if col3 == nil || col3.Len() != 2 || col3.Ints[0] != 6 || col3.Ints[1] != 7 {
		t.Errorf("col3 = %+v", col3)
	}
	// Predicate columns ride along in the view.
	if v.Col(exec.ColKey{Tab: 0, Col: 0}) == nil {
		t.Error("predicate columns should be materialized too")
	}
}

func TestPartialLoadV2CacheFlow(t *testing.T) {
	tab, c := testTable(t, smallCSV, catalog.Options{})
	l := &Loader{Counters: c}
	conj := q2Conj(15, 45, 150, 350)

	v1, err := l.PartialLoadV2Context(context.Background(), tab, []int{0, 1}, conj, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Len() != 2 {
		t.Fatalf("first view Len = %d", v1.Len())
	}
	if tab.Sparse(0, false) == nil || tab.Sparse(0, false).Len() != 2 {
		t.Error("V2 must retain qualifying values")
	}

	// Identical query: served from the store, no raw reads.
	before := c.Snapshot()
	v2, err := l.PartialLoadV2Context(context.Background(), tab, []int{0, 1}, conj, 0)
	if err != nil {
		t.Fatal(err)
	}
	delta := c.Snapshot().Sub(before)
	if delta.RawBytesRead != 0 {
		t.Errorf("covered query read %d raw bytes", delta.RawBytesRead)
	}
	if delta.CacheHits != 1 {
		t.Errorf("CacheHits delta = %d", delta.CacheHits)
	}
	if v2.Len() != v1.Len() {
		t.Errorf("cached view Len = %d, want %d", v2.Len(), v1.Len())
	}

	// Narrower query: still covered; results must match a fresh scan.
	// Only row 1 (a1=20) qualifies under the narrower bound.
	narrow := q2Conj(15, 25, 150, 350)
	before = c.Snapshot()
	v3, err := l.PartialLoadV2Context(context.Background(), tab, []int{0, 1}, narrow, 0)
	if err != nil {
		t.Fatal(err)
	}
	delta = c.Snapshot().Sub(before)
	if delta.RawBytesRead != 0 {
		t.Error("narrower query should be served from the store")
	}
	if v3.Len() != 1 || v3.Value(exec.ColKey{Tab: 0, Col: 0}, 0).I != 20 {
		t.Errorf("narrow view = %d rows, want row 1 (a1=20)", v3.Len())
	}

	// Wider query: not covered; must go back to the file.
	wide := q2Conj(5, 45, 150, 350)
	before = c.Snapshot()
	v4, err := l.PartialLoadV2Context(context.Background(), tab, []int{0, 1}, wide, 0)
	if err != nil {
		t.Fatal(err)
	}
	delta = c.Snapshot().Sub(before)
	if delta.RawBytesRead == 0 {
		t.Error("wider query must re-read the raw file")
	}
	// Rows 1 and 2 qualify: row 0 fails the a2 lower bound (100 < 150).
	if v4.Len() != 2 {
		t.Errorf("wide view Len = %d, want 2", v4.Len())
	}
}

func TestPartialLoadV2DifferentColumnsNotCovered(t *testing.T) {
	tab, c := testTable(t, smallCSV, catalog.Options{})
	l := &Loader{Counters: c}
	conj := q2Conj(15, 45, 150, 350)
	if _, err := l.PartialLoadV2Context(context.Background(), tab, []int{0, 1}, conj, 0); err != nil {
		t.Fatal(err)
	}
	// Same predicates but now also needs column 3 → region lacks col 3.
	before := c.Snapshot()
	v, err := l.PartialLoadV2Context(context.Background(), tab, []int{0, 1, 3}, conj, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Sub(before).RawBytesRead == 0 {
		t.Error("query needing an unmaterialized column must hit the file")
	}
	if v.Col(exec.ColKey{Tab: 0, Col: 3}) == nil || v.Len() != 2 {
		t.Errorf("col3 missing or wrong rows: %d", v.Len())
	}
}

func TestPartialLoadV2MatchesPartialScan(t *testing.T) {
	spec := csvgen.Spec{Rows: 2000, Cols: 4, Seed: 3}
	tabA, ca := genTable(t, spec, catalog.Options{})
	tabB, cb := genTable(t, spec, catalog.Options{})
	la := &Loader{Counters: ca}
	lb := &Loader{Counters: cb}

	queries := []expr.Conjunction{
		q2Conj(100, 400, 500, 900),
		q2Conj(150, 350, 600, 800), // narrower: cache hit on B
		q2Conj(50, 500, 400, 1000), // wider: miss
		q2Conj(60, 480, 410, 950),  // narrower than previous: hit
	}
	for qi, conj := range queries {
		va, err := la.PartialScanContext(context.Background(), tabA, []int{0, 1}, conj, 0)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := lb.PartialLoadV2Context(context.Background(), tabB, []int{0, 1}, conj, 0)
		if err != nil {
			t.Fatal(err)
		}
		if va.Len() != vb.Len() {
			t.Fatalf("query %d: scan=%d v2=%d", qi, va.Len(), vb.Len())
		}
		for _, k := range []exec.ColKey{{Tab: 0, Col: 0}, {Tab: 0, Col: 1}} {
			for i := 0; i < va.Len(); i++ {
				if va.Value(k, i).I != vb.Value(k, i).I {
					t.Fatalf("query %d row %d col %v differs", qi, i, k)
				}
			}
		}
	}
}

func TestSplitColumnLoad(t *testing.T) {
	tab, c := testTable(t, smallCSV, catalog.Options{})
	l := &Loader{Counters: c}
	// First load: columns 0 and 1 → sidecars for 0,1; residual with 2,3.
	if err := l.SplitColumnLoadContext(context.Background(), tab, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if tab.Dense(0) == nil || tab.Dense(0).Ints[2] != 30 {
		t.Error("split load col 0 wrong")
	}
	if !tab.Splits.HasSidecar(0) || !tab.Splits.HasSidecar(1) {
		t.Error("sidecars not registered")
	}

	// Second load: column 3 must come from the residual file, not raw.
	rawSize := int64(len(smallCSV))
	before := c.Snapshot()
	if err := l.SplitColumnLoadContext(context.Background(), tab, []int{3}); err != nil {
		t.Fatal(err)
	}
	delta := c.Snapshot().Sub(before)
	if delta.RawBytesRead >= rawSize {
		t.Errorf("residual load read %d bytes, raw file is %d", delta.RawBytesRead, rawSize)
	}
	if tab.Dense(3) == nil || tab.Dense(3).Ints[1] != 6 {
		t.Errorf("col 3 = %+v", tab.Dense(3))
	}
	// Column 3's split registered a sidecar for 2 and 3 (residual had 2,3).
	if !tab.Splits.HasSidecar(2) || !tab.Splits.HasSidecar(3) {
		t.Error("second split should create sidecars for residual columns")
	}

	// Third: column 2 now loads from its tiny sidecar.
	before = c.Snapshot()
	if err := l.SplitColumnLoadContext(context.Background(), tab, []int{2}); err != nil {
		t.Fatal(err)
	}
	delta = c.Snapshot().Sub(before)
	if tab.Dense(2) == nil || tab.Dense(2).Ints[3] != 4000 {
		t.Errorf("col 2 = %+v", tab.Dense(2))
	}
	if delta.AttrsTokenized > 4 { // one attr per row
		t.Errorf("sidecar load tokenized %d attrs, want 4", delta.AttrsTokenized)
	}
}

func TestSplitColumnLoadMatchesColumnLoad(t *testing.T) {
	spec := csvgen.Spec{Rows: 3000, Cols: 6, Seed: 8}
	tabA, ca := genTable(t, spec, catalog.Options{})
	tabB, cb := genTable(t, spec, catalog.Options{})
	la := &Loader{Counters: ca}
	lb := &Loader{Counters: cb}
	// Load in awkward order: last column first (worst case per paper §4.2).
	for _, cols := range [][]int{{5}, {2, 3}, {0}, {1, 4}} {
		if err := la.ColumnLoadContext(context.Background(), tabA, cols); err != nil {
			t.Fatal(err)
		}
		if err := lb.SplitColumnLoadContext(context.Background(), tabB, cols); err != nil {
			t.Fatal(err)
		}
	}
	for col := 0; col < 6; col++ {
		da, db := tabA.Dense(col), tabB.Dense(col)
		if da == nil || db == nil {
			t.Fatalf("col %d not loaded", col)
		}
		for i := range da.Ints {
			if da.Ints[i] != db.Ints[i] {
				t.Fatalf("col %d row %d: plain=%d split=%d", col, i, da.Ints[i], db.Ints[i])
			}
		}
	}
	// The split path must have read fewer raw+split bytes on the later
	// loads than re-reading the whole raw file every time.
	sa, sb := ca.Snapshot(), cb.Snapshot()
	if sb.RawBytesRead+sb.SplitBytesRead >= sa.RawBytesRead*2 {
		t.Errorf("split path reads did not shrink: plain=%d split=%d+%d",
			sa.RawBytesRead, sb.RawBytesRead, sb.SplitBytesRead)
	}
}

func TestPositionalColumnLoad(t *testing.T) {
	// Wide rows make the anchor benefit visible in attr counts.
	spec := csvgen.Spec{Rows: 1000, Cols: 10, Seed: 4}
	tab, c := genTable(t, spec, catalog.Options{})
	l := &Loader{Counters: c, RecordPositions: true, UsePositions: true}

	// Load column 5: tokenizes 0..5 per row, records positions of col 5.
	if err := l.ColumnLoadContext(context.Background(), tab, []int{5}); err != nil {
		t.Fatal(err)
	}
	before := c.Snapshot()

	// Load column 8: anchor at col 5 → 4 attrs tokenized per row (5..8)
	// instead of 9 (0..8).
	if err := l.ColumnLoadContext(context.Background(), tab, []int{8}); err != nil {
		t.Fatal(err)
	}
	delta := c.Snapshot().Sub(before)
	if delta.AttrsTokenized > 5*1000 {
		t.Errorf("positional load tokenized %d attrs, want <= %d", delta.AttrsTokenized, 5*1000)
	}
	// Each row's anchor position was served by the map.
	if delta.PosMapHits != 1000 {
		t.Errorf("positional load counted %d posmap hits, want 1000", delta.PosMapHits)
	}
	// The positions it learned for column 8 are installed in one run.
	if rows, _ := tab.PosMap.Pairs(8); len(rows) != 1000 || !tab.PosMap.Covers(8, 0, 1000) {
		t.Errorf("positional load recorded %d positions for col 8, want 1000", len(rows))
	}

	// Correctness: compare against a plain load.
	tab2, c2 := genTable(t, spec, catalog.Options{})
	l2 := &Loader{Counters: c2}
	if err := l2.ColumnLoadContext(context.Background(), tab2, []int{8}); err != nil {
		t.Fatal(err)
	}
	a, b := tab.Dense(8), tab2.Dense(8)
	for i := range a.Ints {
		if a.Ints[i] != b.Ints[i] {
			t.Fatalf("row %d: positional=%d plain=%d", i, a.Ints[i], b.Ints[i])
		}
	}
}

func TestPositionalLoadDisabled(t *testing.T) {
	spec := csvgen.Spec{Rows: 100, Cols: 6, Seed: 4}
	tab, c := genTable(t, spec, catalog.Options{})
	l := &Loader{Counters: c, RecordPositions: true, UsePositions: false}
	if err := l.ColumnLoadContext(context.Background(), tab, []int{3}); err != nil {
		t.Fatal(err)
	}
	before := c.Snapshot()
	if err := l.ColumnLoadContext(context.Background(), tab, []int{5}); err != nil {
		t.Fatal(err)
	}
	delta := c.Snapshot().Sub(before)
	if delta.AttrsTokenized < 6*100 {
		t.Errorf("without positions, load should tokenize from row start: %d", delta.AttrsTokenized)
	}
}

func TestLoaderHeaderFile(t *testing.T) {
	tab, c := testTable(t, "x,y\n1,10\n2,20\n", catalog.Options{})
	l := &Loader{Counters: c}
	if err := l.FullLoadContext(context.Background(), tab); err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Errorf("rows = %d (header must not count)", tab.NumRows())
	}
	if tab.Dense(0).Ints[0] != 1 {
		t.Errorf("col x = %v", tab.Dense(0).Ints)
	}
	if tab.Schema().ColIndex("y") != 1 {
		t.Error("named column lookup")
	}
}

func TestPartialScanInvalidColumn(t *testing.T) {
	tab, c := testTable(t, smallCSV, catalog.Options{})
	l := &Loader{Counters: c}
	if _, err := l.PartialScanContext(context.Background(), tab, []int{99}, expr.Conjunction{}, 0); err == nil {
		t.Error("out-of-range column should error")
	}
}

func TestPartialScanNoPredicates(t *testing.T) {
	tab, c := testTable(t, smallCSV, catalog.Options{})
	l := &Loader{Counters: c}
	v, err := l.PartialScanContext(context.Background(), tab, []int{2}, expr.Conjunction{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 4 {
		t.Errorf("unfiltered partial scan Len = %d", v.Len())
	}
}

func TestParseErrorsSurface(t *testing.T) {
	tab, c := testTable(t, "1,2\nx,4\n", catalog.Options{})
	// Schema detection widens col 0 to string, so force the issue by
	// loading col 1 (int) — fine — then check a busted file via direct
	// content where schema says int but a row is malformed. Build schema
	// with only ints then corrupt.
	l := &Loader{Counters: c}
	if err := l.ColumnLoadContext(context.Background(), tab, []int{1}); err != nil {
		t.Fatalf("valid column should load: %v", err)
	}
	// Col 0 is string-typed by detection; loads as strings fine.
	if err := l.ColumnLoadContext(context.Background(), tab, []int{0}); err != nil {
		t.Fatalf("string column should load: %v", err)
	}
	if tab.Dense(0).Strs[1] != "x" {
		t.Error("string fallback content wrong")
	}
}

func TestViewFromStoreMultiRegionPartialColumns(t *testing.T) {
	// Region 1 loads cols {0,1}; region 2 loads cols {0,2}. A query
	// needing {0,1} inside region 1 must not trip over rows loaded by
	// region 2 that lack col 1.
	tab, c := testTable(t, "1,10,100\n2,20,200\n3,30,300\n4,40,400\n", catalog.Options{})
	l := &Loader{Counters: c}

	conj1 := expr.Conjunction{Preds: []expr.Pred{
		{Col: 0, Op: expr.Le, Val: storage.IntValue(2)},
	}}
	if _, err := l.PartialLoadV2Context(context.Background(), tab, []int{0, 1}, conj1, 0); err != nil {
		t.Fatal(err)
	}
	conj2 := expr.Conjunction{Preds: []expr.Pred{
		{Col: 0, Op: expr.Ge, Val: storage.IntValue(3)},
	}}
	if _, err := l.PartialLoadV2Context(context.Background(), tab, []int{0, 2}, conj2, 0); err != nil {
		t.Fatal(err)
	}
	// Narrower than region 1, needing col 1.
	conj3 := expr.Conjunction{Preds: []expr.Pred{
		{Col: 0, Op: expr.Eq, Val: storage.IntValue(2)},
	}}
	v, err := l.PartialLoadV2Context(context.Background(), tab, []int{0, 1}, conj3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 1 || v.Value(exec.ColKey{Tab: 0, Col: 1}, 0).I != 20 {
		t.Errorf("multi-region view wrong: len=%d", v.Len())
	}
}

func TestSplitLoadRequiresRegistry(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.csv")
	os.WriteFile(path, []byte("1,2\n"), 0o644)
	cat := catalog.New(catalog.Options{}) // no SplitDir
	tab, _ := cat.Link("X", path)
	l := &Loader{}
	if err := l.SplitColumnLoadContext(context.Background(), tab, []int{0}); err == nil {
		t.Error("split load without registry should error")
	}
}

// Build a quick sanity check that abandoned rows reduce parse work.
func TestEarlyAbandonReducesWork(t *testing.T) {
	var rows []string
	for i := 0; i < 1000; i++ {
		rows = append(rows, fmt.Sprintf("%d,%d,%d,%d", i, i*2, i*3, i*4))
	}
	content := strings.Join(rows, "\n") + "\n"

	run := func(conj expr.Conjunction) metrics.Snapshot {
		tab, c := testTable(t, content, catalog.Options{})
		l := &Loader{Counters: c}
		if _, err := l.PartialScanContext(context.Background(), tab, []int{0, 3}, conj, 0); err != nil {
			t.Fatal(err)
		}
		return c.Snapshot()
	}
	// 1% selective on col 0: almost every row abandoned at the first attr.
	selective := expr.Conjunction{Preds: []expr.Pred{
		{Col: 0, Op: expr.Lt, Val: storage.IntValue(10)},
	}}
	all := expr.Conjunction{}
	s1, s2 := run(selective), run(all)
	if s1.AttrsTokenized >= s2.AttrsTokenized {
		t.Errorf("selective scan should tokenize fewer attrs: %d vs %d",
			s1.AttrsTokenized, s2.AttrsTokenized)
	}
	if s1.ValuesParsed >= s2.ValuesParsed {
		t.Errorf("selective scan should parse fewer values: %d vs %d",
			s1.ValuesParsed, s2.ValuesParsed)
	}
}

func BenchmarkColumnLoad2of4_100k(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "b.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 100_000, Cols: 4, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	st, _ := os.Stat(path)
	b.SetBytes(st.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cat := catalog.New(catalog.Options{})
		tab, err := cat.Link("B", path)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		l := &Loader{}
		if err := l.ColumnLoadContext(context.Background(), tab, []int{0, 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartialScan10pct_100k(b *testing.B) {
	dir := b.TempDir()
	path := filepath.Join(dir, "b.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 100_000, Cols: 4, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	cat := catalog.New(catalog.Options{})
	tab, err := cat.Link("B", path)
	if err != nil {
		b.Fatal(err)
	}
	conj := q2Conj(0, 10_000, 0, 90_000)
	l := &Loader{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.PartialScanContext(context.Background(), tab, []int{0, 1}, conj, 0); err != nil {
			b.Fatal(err)
		}
	}
}
