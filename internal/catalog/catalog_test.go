package catalog

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"nodb/internal/govern"
	"nodb/internal/intervals"
	"nodb/internal/schema"
	"nodb/internal/storage"
)

func writeCSV(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLinkAndGet(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "r.csv", "1,2\n3,4\n")
	c := New(Options{})
	tab, err := c.Link("R", path)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Schema().NumCols() != 2 {
		t.Errorf("schema cols = %d", tab.Schema().NumCols())
	}
	got, err := c.Get("r") // case-insensitive
	if err != nil || got != tab {
		t.Errorf("Get: %v, %v", got, err)
	}
	if _, err := c.Get("nope"); err == nil {
		t.Error("unknown table should error")
	}
	if names := c.Tables(); len(names) != 1 || names[0] != "R" {
		t.Errorf("Tables = %v", names)
	}
}

func TestLinkMissingFile(t *testing.T) {
	c := New(Options{})
	if _, err := c.Link("X", "/nonexistent/file.csv"); err == nil {
		t.Error("linking missing file should error")
	}
}

func TestUnlink(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "r.csv", "1\n")
	c := New(Options{})
	if _, err := c.Link("R", path); err != nil {
		t.Fatal(err)
	}
	if err := c.Unlink("R"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("R"); err == nil {
		t.Error("unlinked table should be gone")
	}
	if err := c.Unlink("R"); err == nil {
		t.Error("double unlink should error")
	}
}

func TestDenseSparseState(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "r.csv", "1,2\n3,4\n")
	c := New(Options{})
	tab, _ := c.Link("R", path)

	if tab.Dense(0) != nil {
		t.Error("fresh table should have no dense columns")
	}
	if tab.DenseAll([]int{0}) {
		t.Error("DenseAll on empty state")
	}
	if m := tab.MissingDense([]int{0, 1}); len(m) != 2 {
		t.Errorf("MissingDense = %v", m)
	}

	d := storage.NewDense(schema.Int64, 2)
	d.Ints = append(d.Ints, 1, 3)
	tab.SetDense(0, d)
	if tab.Dense(0) != d || !tab.DenseAll([]int{0}) {
		t.Error("SetDense broken")
	}
	if m := tab.MissingDense([]int{0, 1}); len(m) != 1 || m[0] != 1 {
		t.Errorf("MissingDense = %v", m)
	}

	sp := tab.Sparse(1, true)
	if sp == nil || tab.Sparse(1, false) != sp {
		t.Error("Sparse create/get broken")
	}
	sp.Add(0, storage.IntValue(2))
	if tab.MemSize() <= 0 {
		t.Error("MemSize should count loaded state")
	}

	// Dense supersedes sparse.
	tab.SetDense(1, d)
	if tab.Sparse(1, false) != nil {
		t.Error("SetDense should clear sparse state")
	}
}

func TestRegionCovers(t *testing.T) {
	iv := func(lo, hi int64) intervals.Interval { return intervals.Interval{Lo: lo, Hi: hi} }
	r := Region{
		Ranges: map[int]intervals.Interval{0: iv(10, 20), 1: iv(0, 100)},
		Cols:   []int{0, 1},
	}
	cases := []struct {
		q    Region
		want bool
	}{
		// Narrower on both columns.
		{Region{Ranges: map[int]intervals.Interval{0: iv(12, 18), 1: iv(5, 50)}, Cols: []int{0, 1}}, true},
		// Exact match.
		{Region{Ranges: map[int]intervals.Interval{0: iv(10, 20), 1: iv(0, 100)}, Cols: []int{0, 1}}, true},
		// Wider on column 0.
		{Region{Ranges: map[int]intervals.Interval{0: iv(5, 18), 1: iv(5, 50)}, Cols: []int{0, 1}}, false},
		// Needs a column that was not materialized.
		{Region{Ranges: map[int]intervals.Interval{0: iv(12, 18), 1: iv(5, 50)}, Cols: []int{0, 1, 2}}, false},
		// Does not constrain column 1 at all → needs full range there.
		{Region{Ranges: map[int]intervals.Interval{0: iv(12, 18)}, Cols: []int{0}}, false},
		// Constrains an extra column the region did not: fine (subset rows).
		{Region{Ranges: map[int]intervals.Interval{0: iv(12, 18), 1: iv(5, 50), 2: iv(0, 1)}, Cols: []int{0, 1}}, true},
	}
	for i, c := range cases {
		if got := r.Covers(c.q); got != c.want {
			t.Errorf("case %d: Covers = %v, want %v", i, got, c.want)
		}
	}
}

func TestTableRegions(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "r.csv", "1,2\n")
	c := New(Options{})
	tab, _ := c.Link("R", path)
	iv := intervals.Interval{Lo: 0, Hi: 50}
	r := Region{Ranges: map[int]intervals.Interval{0: iv}, Cols: []int{0, 1}}
	// A region without backing data is refused (coverage must never
	// outlive — or predate — the values it promises).
	tab.AddRegion(r)
	if len(tab.Regions()) != 0 {
		t.Fatal("unbacked region was recorded")
	}
	for _, col := range []int{0, 1} {
		tab.MergeSparse(col, []int64{0}, func(int) storage.Value { return storage.IntValue(int64(col + 1)) })
	}
	tab.AddRegion(r)
	q := Region{Ranges: map[int]intervals.Interval{0: {Lo: 10, Hi: 20}}, Cols: []int{0}}
	if _, ok := tab.CoveredBy(q); !ok {
		t.Error("recorded region should cover narrower query")
	}
	q2 := Region{Ranges: map[int]intervals.Interval{0: {Lo: 10, Hi: 90}}, Cols: []int{0}}
	if _, ok := tab.CoveredBy(q2); ok {
		t.Error("wider query should not be covered")
	}
	if len(tab.Regions()) != 1 {
		t.Error("Regions copy broken")
	}
}

func TestRevalidateDropsState(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "r.csv", "1,2\n3,4\n")
	c := New(Options{})
	tab, _ := c.Link("R", path)

	d := storage.NewDense(schema.Int64, 2)
	d.Ints = append(d.Ints, 1, 3)
	tab.SetDense(0, d)
	tab.SetNumRows(2)
	tab.PosMap.RecordRun(0, 0, []int64{0})

	// Unchanged file: no invalidation.
	inv, err := tab.Revalidate()
	if err != nil || inv {
		t.Fatalf("unchanged file invalidated: %v, %v", inv, err)
	}
	if tab.Dense(0) == nil {
		t.Fatal("state dropped without invalidation")
	}

	// Edit the file (the user's text editor, per the paper).
	time.Sleep(10 * time.Millisecond) // ensure mtime moves
	if err := os.WriteFile(path, []byte("9,8\n7,6\n5,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	inv, err = tab.Revalidate()
	if err != nil || !inv {
		t.Fatalf("edited file not invalidated: %v, %v", inv, err)
	}
	if tab.Dense(0) != nil {
		t.Error("dense column survived invalidation")
	}
	if tab.NumRows() != -1 {
		t.Error("row count survived invalidation")
	}
	if tab.PosMap.Entries() != 0 {
		t.Error("positional map survived invalidation")
	}
}

func TestRevalidateSchemaChange(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "r.csv", "1,2\n")
	c := New(Options{})
	tab, _ := c.Link("R", path)
	time.Sleep(10 * time.Millisecond)
	writeCSV(t, dir, "r.csv", "1,2,3\n4,5,6\n")
	if _, err := tab.Revalidate(); err != nil {
		t.Fatal(err)
	}
	if tab.Schema().NumCols() != 3 {
		t.Errorf("schema not refreshed: %d cols", tab.Schema().NumCols())
	}
	// Column state resized.
	if tab.Dense(2) != nil {
		t.Error("new column should be unloaded")
	}
}

func TestGovernedEviction(t *testing.T) {
	dir := t.TempDir()
	p1 := writeCSV(t, dir, "a.csv", "1\n2\n")
	p2 := writeCSV(t, dir, "b.csv", "1\n2\n")
	gov := govern.New(100, govern.LRU{}, nil)
	c := New(Options{Governor: gov})
	ta, _ := c.Link("A", p1)
	tb, _ := c.Link("B", p2)

	load := func(tab *Table) {
		d := storage.NewDense(schema.Int64, 16)
		for i := 0; i < 16; i++ {
			d.Ints = append(d.Ints, int64(i))
		}
		tab.SetDense(0, d) // 128 bytes each
	}
	load(ta)
	load(tb) // B registered after A → A is the LRU victim
	if gov.Used() < 256 {
		t.Fatalf("governed bytes = %d, want >= 256 after two loads", gov.Used())
	}
	evicted := gov.Enforce()
	if len(evicted) == 0 {
		t.Fatal("budget exceeded but nothing evicted")
	}
	if evicted[0].Label != "A.c0" {
		t.Errorf("evicted %v, want A.c0 first (LRU)", evicted)
	}
	if ta.Dense(0) != nil {
		t.Error("evicted column still in the catalog")
	}
	if gov.Used() > 100 {
		t.Errorf("used = %d after enforce, budget 100", gov.Used())
	}
	_ = tb
}

func TestGovernedPinVetoesEviction(t *testing.T) {
	dir := t.TempDir()
	p := writeCSV(t, dir, "a.csv", "1\n2\n")
	gov := govern.New(50, govern.CostAware{}, nil)
	c := New(Options{Governor: gov})
	ta, _ := c.Link("A", p)
	d := storage.NewDense(schema.Int64, 16)
	for i := 0; i < 16; i++ {
		d.Ints = append(d.Ints, int64(i))
	}
	ta.SetDense(0, d)
	unpin := ta.Pin([]int{0})
	if ev := gov.Enforce(); len(ev) != 0 {
		t.Fatalf("pinned column evicted: %v", ev)
	}
	if ta.Dense(0) == nil {
		t.Fatal("pinned column dropped from catalog")
	}
	unpin()
	if ev := gov.Enforce(); len(ev) == 0 {
		t.Fatal("unpinned column should be evictable")
	}
}

func TestGovernedReleaseOnDropDerived(t *testing.T) {
	dir := t.TempDir()
	p := writeCSV(t, dir, "a.csv", "1\n2\n")
	gov := govern.New(0, nil, nil)
	c := New(Options{Governor: gov})
	ta, _ := c.Link("A", p)
	d := storage.NewDense(schema.Int64, 16)
	for i := 0; i < 16; i++ {
		d.Ints = append(d.Ints, int64(i))
	}
	ta.SetDense(0, d)
	if gov.Used() == 0 {
		t.Fatal("load not accounted")
	}
	ta.DropDerived()
	if gov.Used() != 0 {
		t.Fatalf("used = %d after DropDerived, want 0", gov.Used())
	}
	if err := c.Unlink("A"); err != nil {
		t.Fatal(err)
	}
	if st := gov.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d after unlink, want 0", st.Entries)
	}
}

func TestRelinkDropsOldState(t *testing.T) {
	dir := t.TempDir()
	p1 := writeCSV(t, dir, "a.csv", "1,2\n")
	c := New(Options{})
	t1, _ := c.Link("T", p1)
	d := storage.NewDense(schema.Int64, 1)
	d.Ints = append(d.Ints, 1)
	t1.SetDense(0, d)

	p2 := writeCSV(t, dir, "b.csv", "5,6\n")
	t2, err := c.Link("T", p2)
	if err != nil {
		t.Fatal(err)
	}
	if t2 == t1 {
		t.Error("relink should produce a fresh table")
	}
	if t1.Dense(0) != nil {
		t.Error("old table state should be dropped on relink")
	}
	got, _ := c.Get("T")
	if got.Path() != p2 {
		t.Errorf("Get after relink = %s", got.Path())
	}
}

func TestSignFile(t *testing.T) {
	dir := t.TempDir()
	p := writeCSV(t, dir, "x.csv", "hello\n")
	s1, err := SignFile(p)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := SignFile(p)
	if s1 != s2 {
		t.Error("signature not deterministic")
	}
	time.Sleep(10 * time.Millisecond)
	writeCSV(t, dir, "x.csv", "world\n")
	s3, _ := SignFile(p)
	if s1 == s3 {
		t.Error("changed content should change signature")
	}
	if _, err := SignFile(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file should error")
	}
}
