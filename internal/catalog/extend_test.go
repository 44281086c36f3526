package catalog

import (
	"os"
	"strings"
	"testing"
	"time"

	"nodb/internal/intervals"
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

func TestGrownFrom(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "g.csv", "1,2\n3,4\n")
	old, err := SignFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Unchanged: not grown (not strictly larger).
	if ok, _ := GrownFrom(path, old); ok {
		t.Error("unchanged file reported grown")
	}

	// A pure append is growth.
	appendFile(t, path, "5,6\n")
	if ok, err := GrownFrom(path, old); err != nil || !ok {
		t.Errorf("append not recognized as growth: %v, %v", ok, err)
	}

	// Same length, edited tail: not growth (and the caller's sig
	// comparison must invalidate — see TestRevalidateTailEdit).
	if err := os.WriteFile(path, []byte("1,2\n9,9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	appendFile(t, path, "5,6\n")
	if ok, _ := GrownFrom(path, old); ok {
		t.Error("tail edit + append reported as prefix-stable growth")
	}

	// Edited prefix plus growth: not growth.
	if err := os.WriteFile(path, []byte("7,2\n3,4\n5,6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ok, _ := GrownFrom(path, old); ok {
		t.Error("prefix edit reported as prefix-stable growth")
	}

	// Old content not ending in a newline: the "append" glues onto the
	// last row, so the old row boundary assignment is wrong — not growth.
	path2 := writeCSV(t, dir, "g2.csv", "1,2\n3,4")
	old2, err := SignFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	appendFile(t, path2, "\n5,6\n")
	if ok, _ := GrownFrom(path2, old2); ok {
		t.Error("growth from a file without trailing newline accepted")
	}
}

// TestRevalidateGrowthWithoutTailPass: a catalog with no tail pass
// treats a prefix-stable growth like any other change and drops the
// learned state. (With the loader's pass wired in, growth extends it: see
// the loader's TestRevalidateGrowthExtendsState.)
func TestRevalidateGrowthWithoutTailPass(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "r.csv", "1,2\n3,4\n")
	tab, err := New(Options{}).Link("R", path)
	if err != nil {
		t.Fatal(err)
	}
	d := storage.NewDense(schema.Int64, 2)
	d.Ints = append(d.Ints, 1, 3)
	tab.SetDense(0, d)
	tab.SetNumRows(2)

	appendFile(t, path, "5,6\n")
	changed, err := tab.Revalidate()
	if err != nil || !changed {
		t.Fatalf("growth revalidate: changed=%v err=%v", changed, err)
	}
	if tab.Dense(0) != nil || tab.NumRows() != -1 {
		t.Error("learned state survived growth without a tail pass")
	}
	if ing := tab.Ingest(); ing.Refreshes != 0 || ing.AppendedRows != 0 {
		t.Errorf("ingest stats = %+v, want no extension", ing)
	}
}

// TestRevalidateTailEdit pins the satellite: a same-size edit past the
// 4 KiB prefix probe — invisible to size, prefix CRC, and (with a
// restored timestamp) mtime — must still invalidate via the tail CRC.
func TestRevalidateTailEdit(t *testing.T) {
	dir := t.TempDir()
	// Push the edit beyond the prefix probe so only the tail CRC can see
	// it: > 4 KiB of rows, edit in the last line.
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		sb.WriteString("11,22\n")
	}
	sb.WriteString("33,44\n")
	path := writeCSV(t, dir, "r.csv", sb.String())
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	c := New(Options{})
	tab, err := c.Link("R", path)
	if err != nil {
		t.Fatal(err)
	}
	d := storage.NewDense(schema.Int64, 1)
	d.Ints = append(d.Ints, 11)
	tab.SetDense(0, d)
	tab.SetNumRows(2001)

	// Rewrite the last row in place (same byte length) and restore the
	// original mtime — the stale-mtime text-editor scenario.
	edited := sb.String()[:sb.Len()-6] + "99,44\n"
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, time.Now(), st.ModTime()); err != nil {
		t.Fatal(err)
	}

	changed, err := tab.Revalidate()
	if err != nil || !changed {
		t.Fatalf("tail edit not detected: changed=%v err=%v", changed, err)
	}
	if tab.Dense(0) != nil || tab.NumRows() != -1 {
		t.Error("derived state survived a tail edit")
	}
}

// TestAddRegionCoalescing pins the satellite: interleaved partial loads
// whose ranges touch or overlap collapse into one region instead of
// fragmenting the coverage list.
func TestAddRegionCoalescing(t *testing.T) {
	dir := t.TempDir()
	path := writeCSV(t, dir, "r.csv", "1,2\n")
	c := New(Options{})
	tab, err := c.Link("R", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []int{0, 1} {
		tab.MergeSparse(col, []int64{0}, func(int) storage.Value { return storage.IntValue(int64(col + 1)) })
	}
	reg := func(lo, hi int64) Region {
		return Region{Ranges: map[int]intervals.Interval{0: {Lo: lo, Hi: hi}}, Cols: []int{0, 1}}
	}

	// Adjacent and overlapping fragments merge to their exact union.
	tab.AddRegion(reg(0, 10))
	tab.AddRegion(reg(10, 20)) // touches
	tab.AddRegion(reg(15, 30)) // overlaps
	if got := tab.Regions(); len(got) != 1 {
		t.Fatalf("regions = %d (%v), want 1 coalesced region", len(got), got)
	} else if iv := got[0].Ranges[0]; iv.Lo != 0 || iv.Hi != 30 {
		t.Errorf("coalesced range = %+v, want [0,30]", iv)
	}

	// A disjoint range stays separate...
	tab.AddRegion(reg(50, 60))
	if got := tab.Regions(); len(got) != 2 {
		t.Fatalf("regions = %d, want 2 (disjoint ranges must not union)", len(got))
	}
	// ...until a bridging load arrives, which collapses all fragments.
	tab.AddRegion(reg(25, 55))
	got := tab.Regions()
	if len(got) != 1 {
		t.Fatalf("regions = %d (%v), want 1 after bridging load", len(got), got)
	}
	if iv := got[0].Ranges[0]; iv.Lo != 0 || iv.Hi != 60 {
		t.Errorf("bridged range = %+v, want [0,60]", iv)
	}

	// A subsumed newcomer is a no-op; a wider newcomer replaces fragments.
	tab.AddRegion(reg(5, 7))
	if got := tab.Regions(); len(got) != 1 {
		t.Errorf("subsumed region fragmented the list: %v", got)
	}

	// A newcomer additionally constrained on another column is covered by
	// the existing region (which is unconstrained there) — still one.
	r2 := Region{Ranges: map[int]intervals.Interval{0: {Lo: 0, Hi: 60}, 1: {Lo: 0, Hi: 5}}, Cols: []int{0, 1}}
	tab.AddRegion(r2)
	if got := tab.Regions(); len(got) != 1 {
		t.Errorf("regions = %v, want the covered newcomer discarded", got)
	}
}
