package catalog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"nodb/internal/govern"
	"nodb/internal/schema"
	"nodb/internal/snapshot"
	"nodb/internal/storage"
)

func quietStore(t *testing.T, dir string) *snapshot.Store {
	t.Helper()
	s := snapshot.NewStore(dir, nil)
	s.Logf = func(string, ...any) {}
	return s
}

// TestSaveAndPrepareRoundTrip: a table's learned state survives through a
// fresh catalog pointed at the same cache dir.
func TestSaveAndPrepareRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "r.csv", "1,10\n2,20\n3,30\n")
	store := quietStore(t, filepath.Join(dir, "cache"))

	c1 := New(Options{Snapshots: store})
	tab1, err := c1.Link("R", path)
	if err != nil {
		t.Fatal(err)
	}
	tab1.SetNumRows(3)
	d := storage.NewDense(tab1.Schema().Columns[0].Type, 3)
	for _, v := range []int64{1, 2, 3} {
		d.Append(storage.IntValue(v))
	}
	tab1.SetDense(0, d)
	tab1.PosMap.RecordRows(1, []int64{0, 1}, []int64{2, 7})
	if err := tab1.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	c1.DropAll()

	c2 := New(Options{Snapshots: store})
	tab2, err := c2.Link("R", path)
	if err != nil {
		t.Fatal(err)
	}
	if tab2.Dense(0) != nil {
		t.Fatal("dense column present before Prepare (restore must be lazy)")
	}
	tab2.Prepare([]int{0, 1})
	if tab2.NumRows() != 3 {
		t.Errorf("rows = %d, want 3", tab2.NumRows())
	}
	got := tab2.Dense(0)
	if got == nil || got.Len() != 3 || got.Int(2) != 3 {
		t.Fatalf("dense column not restored: %+v", got)
	}
	// The positional map restores only when a load is still needed —
	// here col 1 is missing, so Prepare re-admitted it.
	if off, ok := tab2.PosMap.Lookup(1, 1); !ok || off != 7 {
		t.Errorf("posmap not restored: off=%d ok=%v", off, ok)
	}
}

// TestPreparePosMapLazy: when every needed column restores dense, the
// positional map stays on disk.
func TestPreparePosMapLazy(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "r.csv", "1,10\n2,20\n")
	store := quietStore(t, filepath.Join(dir, "cache"))

	c1 := New(Options{Snapshots: store})
	tab1, _ := c1.Link("R", path)
	tab1.SetNumRows(2)
	d := storage.NewDense(tab1.Schema().Columns[0].Type, 2)
	d.Append(storage.IntValue(1))
	d.Append(storage.IntValue(2))
	tab1.SetDense(0, d)
	tab1.PosMap.RecordRun(0, 0, []int64{0})
	if err := tab1.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	c1.DropAll()

	c2 := New(Options{Snapshots: store})
	tab2, _ := c2.Link("R", path)
	tab2.Prepare([]int{0})
	if tab2.Dense(0) == nil {
		t.Fatal("dense not restored")
	}
	if tab2.PosMap.Entries() != 0 {
		t.Error("posmap restored although no load was pending")
	}
}

// TestEvictionSpillKeepsGovernedBytesDown: spilling must zero the
// governed footprint exactly like a plain drop, and re-admission must
// re-register the bytes.
func TestEvictionSpillKeepsGovernedBytesDown(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "r.csv", "1,10\n2,20\n3,30\n")
	store := quietStore(t, filepath.Join(dir, "cache"))
	gov := govern.New(1, nil, nil) // 1-byte budget: evict everything unpinned

	c := New(Options{Snapshots: store, Governor: gov})
	tab, err := c.Link("R", path)
	if err != nil {
		t.Fatal(err)
	}
	tab.SetNumRows(3)
	// Row 1's second offset lies below the window of the narrow block its
	// first opened, so the block turns wide; row 0 stays unrecorded, so
	// it never seals.
	tab.PosMap.RecordRun(0, 1, []int64{1 << 40})
	tab.PosMap.RecordRun(0, 1, []int64{10})
	tab.PosMap.RecordRun(0, 2, []int64{20})
	before := gov.Used()
	if before == 0 {
		t.Fatal("posmap not governed")
	}
	evicted := gov.Enforce()
	if len(evicted) == 0 {
		t.Fatal("nothing evicted")
	}
	if gov.Used() != 0 {
		t.Fatalf("governed bytes after spill-eviction = %d, want 0", gov.Used())
	}
	if st := store.Stats(); st.Spills == 0 {
		t.Fatalf("eviction did not spill: %+v", st)
	}
	if tab.PosMap.Entries() != 0 {
		t.Fatal("posmap not dropped after spill")
	}
	// Re-admission on demand: col 0 has no dense data → load pending.
	tab.Prepare([]int{0})
	if tab.PosMap.Entries() != 2 {
		t.Fatalf("posmap entries after unspill = %d, want 2", tab.PosMap.Entries())
	}
	if off, ok := tab.PosMap.Lookup(0, 1); !ok || off != 10 {
		t.Errorf("restored posmap wrong: off=%d ok=%v", off, ok)
	}
	if off, ok := tab.PosMap.Lookup(0, 2); !ok || off != 20 {
		t.Errorf("restored posmap wrong: off=%d ok=%v", off, ok)
	}
	// Re-admission registers the restored map's own bytes, not the count
	// from before the spill: the restore writes the two rows into a narrow
	// block (a column slot, an index slot, an 8 B base and 1024 4 B
	// deltas, and the rows' one 48 B coverage interval), where the wide
	// block held 4 KiB more.
	if want := int64(8 + 8 + 8 + 4*1024 + 48); gov.Used() != want || want >= before {
		t.Errorf("re-admitted bytes %d, want %d (%d before the spill)", gov.Used(), want, before)
	}
}

// TestRevalidateRemovesSnapshotFiles: an edited raw file must take its
// snapshot and spill files with it.
func TestRevalidateRemovesSnapshotFiles(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	path := writeCSV(t, dir, "r.csv", "1,10\n2,20\n")
	store := quietStore(t, cacheDir)

	c := New(Options{Snapshots: store})
	tab, _ := c.Link("R", path)
	tab.SetNumRows(2)
	tab.PosMap.RecordRun(0, 0, []int64{0})
	if err := tab.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	key := snapshot.Key("R", path)
	if _, err := os.Stat(store.SnapPath(key)); err != nil {
		t.Fatalf("snapshot missing before edit: %v", err)
	}

	if err := os.WriteFile(path, []byte("9,90\n8,80\n7,70\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	changed, err := tab.Revalidate()
	if err != nil || !changed {
		t.Fatalf("Revalidate = %v, %v", changed, err)
	}
	if _, err := os.Stat(store.SnapPath(key)); !os.IsNotExist(err) {
		t.Fatal("stale snapshot file survived the file edit")
	}
	// Prepare after invalidation must be a clean miss, not a crash.
	tab.Prepare([]int{0})
	if tab.Dense(0) != nil {
		t.Fatal("state restored from a removed snapshot")
	}
}

// TestRegionNeverOutlivesFailedSparseRestore pins the crash-safety
// invariant the reviewers probed: if a sparse column's section is
// corrupt, the region that references it must NOT be installed — a
// restored coverage claim without its backing data would later serve
// incomplete results. AddRegion's backing re-check is the guard.
func TestRegionNeverOutlivesFailedSparseRestore(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	path := writeCSV(t, dir, "r.csv", "1,10\n2,20\n3,30\n")
	store := quietStore(t, cacheDir)

	// Hand-craft a snapshot: one sparse column (col 1) and a region
	// claiming coverage over it, then corrupt the sparse payload only.
	sig, err := SignFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tbl := &snapshot.Table{
		Rows: 3,
		Sparse: []snapshot.SparseCol{{
			Col: 1, Typ: schema.Int64,
			Rows: []int64{0, 1}, Ints: []int64{10, 20},
		}},
		Regions: []snapshot.Region{{
			Cols: []int{1}, RangeCols: []int{0}, Los: []int64{0}, His: []int64{100},
		}},
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		t.Fatal(err)
	}
	key := snapshot.Key("R", path)
	f, err := os.Create(store.SnapPath(key))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snapshot.Encode(f, snapshot.Sig(sig), tbl); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Locate and corrupt the sparse payload: it holds the value 20,
	// which appears nowhere else in the file.
	data, err := os.ReadFile(store.SnapPath(key))
	if err != nil {
		t.Fatal(err)
	}
	needle := []byte{20, 0, 0, 0, 0, 0, 0, 0}
	off := bytes.Index(data, needle)
	if off < 0 {
		t.Fatal("could not locate sparse payload")
	}
	data[off] ^= 0xff
	if err := os.WriteFile(store.SnapPath(key), data, 0o644); err != nil {
		t.Fatal(err)
	}

	c := New(Options{Snapshots: store})
	tab, err := c.Link("R", path)
	if err != nil {
		t.Fatal(err)
	}
	tab.Prepare([]int{0, 1})
	if sp := tab.Sparse(1, false); sp != nil {
		t.Fatalf("corrupt sparse column was installed: %d rows", sp.Len())
	}
	if regs := tab.Regions(); len(regs) != 0 {
		t.Fatalf("region survived its corrupt backing data: %+v", regs)
	}
	if _, ok := tab.CoveredBy(Region{Cols: []int{1}}); ok {
		t.Fatal("stale coverage claim served")
	}
	if st := store.Stats(); st.Invalidations == 0 {
		t.Errorf("corrupt sparse section not counted: %+v", st)
	}
}
