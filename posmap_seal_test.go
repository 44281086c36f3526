package nodb

// The positional map seals each block a column load fills: positions as a
// line plus int16 residuals. These tests hold the sealed map to the field
// offsets read straight off the file and to the query oracle, through a
// column load at 1, 2 and 8 workers, a positional load, a Refresh and a
// warm restart, and keep a block whose residuals overflow int16 unsealed.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nodb/internal/csvgen"
)

// Bytes of the positional map's parts: a column or block index slot, a
// sealed block's base and stride and each of its residuals, a narrow
// block of 1024 uint32 deltas and its base, and one interval of a
// column's coverage set.
const (
	pmSlot       = 8
	pmSealedHead = 16
	pmResidual   = 2
	pmNarrow     = 8 + 4*1024
	pmInterval   = 48
)

// sealedBytes is the map's size when cols columns, 0..cols-1, hold rows
// positions each, every block sealed and each column one interval.
func sealedBytes(rows int64, cols int) int64 {
	blocks := (rows + 1023) / 1024
	return pmSlot*int64(cols) + int64(cols)*(blocks*(pmSlot+pmSealedHead)+pmResidual*rows+pmInterval)
}

// fieldOffsets reads the file offset of attribute col of every row of a
// headerless, unquoted CSV file: the oracle of the positional map.
func fieldOffsets(t *testing.T, path string, col int) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for at := 0; at < len(data); {
		end := at + bytes.IndexByte(data[at:], '\n')
		off := at
		for range col {
			off += bytes.IndexByte(data[off:end], ',') + 1
		}
		offs = append(offs, int64(off))
		at = end + 1
	}
	return offs
}

// checkPositions fails the test unless t's positional map holds exactly
// the file's field offsets for every row of cols.
func checkPositions(t *testing.T, db *DB, path string, cols ...int) {
	t.Helper()
	tab, err := db.e.Catalog().Get("t")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cols {
		want := fieldOffsets(t, path, c)
		rows, offs := tab.PosMap.Pairs(c)
		if len(rows) != len(want) || rows[len(rows)-1] != int64(len(want)-1) || !slices.Equal(offs, want) {
			t.Fatalf("a%d: the map holds %d positions, not the file's %d field offsets", c+1, len(rows), len(want))
		}
	}
}

// posMapBytes returns t's positional map size.
func posMapBytes(t *testing.T, db *DB) int64 {
	t.Helper()
	tab, err := db.e.Catalog().Get("t")
	if err != nil {
		t.Fatal(err)
	}
	return tab.PosMap.MemSize()
}

// TestPosMapSealedLifecycle: at 1, 2 and 8 workers over small portions
// (so blocks straddle portion seams), a column load of (a1, a2) and a
// positional load of (a3, a4) leave every block sealed and every position
// the file's; a Refresh of appended rows and a warm restart end at the
// bytes of a cold load of the grown file, and answers match the oracle
// throughout.
func TestPosMapSealedLifecycle(t *testing.T) {
	const rows, added = 9000, 1500
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "t.csv")
			if err := csvgen.WriteFile(path, csvgen.Spec{Rows: rows, Cols: 6, Seed: 41}); err != nil {
				t.Fatal(err)
			}
			opts := Options{Policy: ColumnLoads, Workers: workers, ChunkSize: 16 << 10, CacheDir: filepath.Join(dir, "cache")}
			db := Open(opts)
			if err := db.Attach("t", TableSpec{Path: path}); err != nil {
				t.Fatal(err)
			}
			o := newOracle(t, map[string]string{"t": path})
			checkOracle(t, o, db, "select sum(a1), min(a2), count(*) from t where a2 < 7000", "load")
			checkPositions(t, db, path, 0, 1)
			hits := db.Work().PosMapHits
			checkOracle(t, o, db, "select sum(a3), max(a4), count(*) from t where a4 > 100", "positional load")
			if got := db.Work().PosMapHits - hits; got < rows {
				t.Errorf("loading (a3, a4) took %d positions from the map, want a positional load (>= %d)", got, rows)
			}
			checkPositions(t, db, path, 0, 1, 2, 3)
			if got, want := posMapBytes(t, db), sealedBytes(rows, 4); got != want {
				t.Errorf("after the loads the map holds %d bytes, want %d: every block sealed", got, want)
			}

			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range added {
				fmt.Fprintf(f, "%d,%d,%d,%d,%d,%d\n", rows+i, i%977, i*3, i%50, 7, i)
			}
			f.Close()
			if ref, err := db.Refresh("t"); err != nil || !ref.Grown || ref.RowsAdded != added {
				t.Fatalf("Refresh = %+v, %v; want grown by %d rows", ref, err, added)
			}
			o = newOracle(t, map[string]string{"t": path})
			checkOracle(t, o, db, "select sum(a1), sum(a3), min(a2), max(a4) from t where a3 > 50", "refreshed")
			checkPositions(t, db, path, 0, 1, 2, 3)
			before := posMapBytes(t, db)
			if want := sealedBytes(rows+added, 4); before != want {
				t.Errorf("after Refresh the map holds %d bytes, want %d: the bytes of a cold load", before, want)
			}
			if used, size := db.MemStats().Used, db.MemSize(); used != size {
				t.Errorf("governor holds %d bytes, the table's MemSize sums to %d", used, size)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			db = Open(opts)
			defer db.Close()
			if err := db.Attach("t", TableSpec{Path: path}); err != nil {
				t.Fatal(err)
			}
			tab, err := db.e.Catalog().Get("t")
			if err != nil {
				t.Fatal(err)
			}
			tab.Prepare([]int{4}) // a5 is not loaded: the map is restored for its load
			if got := posMapBytes(t, db); got != before {
				t.Errorf("restored map holds %d bytes, %d before the close", got, before)
			}
			checkPositions(t, db, path, 0, 1, 2, 3)
			checkOracle(t, o, db, "select sum(a5), max(a3), count(*) from t where a4 < 40", "warm")
			checkPositions(t, db, path, 0, 1, 2, 3, 4)
		})
	}
}

// TestPosMapLongRowUnsealed: a 40 KB row opens block 3, so in a1 and a2
// (whose positions the long field a2 pushes back in the next row) the
// block's offsets leave the line through its first and last one by more
// than int16 holds. Those two blocks stay narrow, every other block seals,
// and positions and answers are exact, as without the map.
func TestPosMapLongRowUnsealed(t *testing.T) {
	const rows = 5000
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	var sb strings.Builder
	for i := range rows {
		a2 := fmt.Sprintf("s%d", i%97)
		if i == 3*1024 {
			a2 = strings.Repeat("x", 40_000)
		}
		fmt.Fprintf(&sb, "%d,%s,%d,%d\n", i, a2, i*7%1000, i%13)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	o := newOracle(t, map[string]string{"t": path})
	queries := []string{
		"select count(*), sum(a1), min(a2) from t where a2 <> 'zz'",
		"select a4, sum(a3), count(*) from t group by a4 order by a4",
		"select a1, a3 from t where a1 >= 3070 and a1 < 3075 order by a1",
	}
	for _, disable := range []bool{false, true} {
		db := Open(Options{Policy: ColumnLoads, Workers: 2, ChunkSize: 16 << 10, DisablePositionalMap: disable})
		if err := db.Attach("t", TableSpec{Path: path}); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			checkOracle(t, o, db, q, fmt.Sprint("map disabled: ", disable))
		}
		if !disable {
			checkPositions(t, db, path, 0, 1, 2, 3)
			unsealed := 2 * int64(pmNarrow-(pmSealedHead+pmResidual*1024))
			if got, want := posMapBytes(t, db), sealedBytes(rows, 4)+unsealed; got != want {
				t.Errorf("map holds %d bytes, want %d: all sealed but block 3 of a1 and a2", got, want)
			}
		}
		db.Close()
	}
}

// TestAppendedColumnsTrimmed: a single-portion pass appends its float and
// string values, and settles every column to its length: a one-row file
// and a one-worker load hold 8 B per float, and the governor holds the
// tables' MemSize.
func TestAppendedColumnsTrimmed(t *testing.T) {
	dir := t.TempDir()
	one := filepath.Join(dir, "one.csv")
	if err := os.WriteFile(one, []byte("1,2.5,x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	many := filepath.Join(dir, "many.csv")
	var sb strings.Builder
	for i := range 3000 {
		fmt.Fprintf(&sb, "%d,%d.25,s%d\n", i, i, i%7)
	}
	if err := os.WriteFile(many, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	db := Open(Options{Policy: ColumnLoads, Workers: 1})
	defer db.Close()
	for name, path := range map[string]string{"one": one, "many": many} {
		if err := db.Attach(name, TableSpec{Path: path}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Query("select sum(a1), sum(a2), min(a3) from " + name); err != nil {
			t.Fatal(err)
		}
		tab, err := db.e.Catalog().Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if d := tab.Dense(1); d == nil || d.MemSize() != 8*int64(d.Len()) {
			t.Errorf("%s: float column not trimmed to its %d rows", name, tab.NumRows())
		}
	}
	if used, size := db.MemStats().Used, db.MemSize(); used != size {
		t.Errorf("governor holds %d bytes, the tables' MemSize sums to %d", used, size)
	}
}
