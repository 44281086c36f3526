package nodb

// Narrow int columns against the oracle: a table whose int columns sit on
// every width boundary answers filters with literals past each width,
// aggregates, GROUP BY and ORDER BY … LIMIT exactly as the reference
// evaluator does, under the loading policies that keep dense columns or
// sparse ones; and the stored widths follow the width rule through loads,
// a widening Refresh and a warm restart.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// widthEdges are the values of the width table's first five columns, one
// column per width: each column holds its width's extremes and the
// neighbours of the narrower width's, so the rule lands exactly on it.
var widthEdges = [][]int64{
	{math.MinInt8, math.MinInt8 + 1, -1, 0, 1, math.MaxInt8 - 1, math.MaxInt8},
	{math.MinInt16, math.MinInt16 + 1, math.MinInt8 - 1, math.MaxInt8 + 1, 0, math.MaxInt16 - 1, math.MaxInt16},
	{math.MinInt32, math.MinInt32 + 1, math.MinInt16 - 1, math.MaxInt16 + 1, 0, math.MaxInt32 - 1, math.MaxInt32},
	{math.MinInt64, math.MinInt64 + 1, math.MinInt32 - 1, math.MaxInt32 + 1, 0, math.MaxInt64 - 1, math.MaxInt64},
	{0},
}

// widthRows is the width table's row count: past the schema sample's
// 1 000 rows, so a6, small in the sample and wide after it, overflows the
// width the sample suggests and the load widens it.
const widthRows = 3000

// widthWant is the width the rule gives each column of the width table.
var widthWant = []int{1, 2, 4, 8, 1, 4, 1, 2}

// writeWidthTable writes the width table: a1..a5 drawn from widthEdges,
// a6 small then wide, a7 a group key in [-10, 9], a8 a measure in [0, 999].
func writeWidthTable(t testing.TB, path string, rows int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		for _, e := range widthEdges {
			fmt.Fprintf(&sb, "%d,", e[rng.Intn(len(e))])
		}
		a6 := int64(rng.Intn(100))
		if i >= widthRows/2 {
			a6 = 100_000 + int64(i)
		}
		fmt.Fprintf(&sb, "%d,%d,%d\n", a6, rng.Intn(20)-10, rng.Intn(1000))
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// widthQueries exercise every int kernel on every width, with literals
// inside, at and past each width's range.
func widthQueries() []string {
	var qs []string
	for c := 1; c <= 5; c++ {
		a := fmt.Sprintf("a%d", c)
		qs = append(qs,
			fmt.Sprintf("select sum(%[1]s), avg(%[1]s), min(%[1]s), max(%[1]s), count(*) from t", a),
			fmt.Sprintf("select %[1]s, count(*), sum(a8), min(a8), max(a8) from t group by %[1]s order by %[1]s", a),
			fmt.Sprintf("select %[1]s, a8 from t order by %[1]s desc, a8 limit 7", a),
			fmt.Sprintf("select a8, %[1]s from t where a8 < 40 order by a8, %[1]s limit 9", a),
		)
		for _, x := range []int64{-70000, -129, -128, 127, 128, 32768, math.MaxInt32 + 1, math.MinInt64} {
			for _, op := range []string{"<", "<=", ">", ">=", "=", "<>"} {
				qs = append(qs, fmt.Sprintf("select count(*), sum(a8), min(%[1]s) from t where %[1]s %[2]s %[3]d", a, op, x))
			}
		}
		qs = append(qs,
			fmt.Sprintf("select count(*), max(%[1]s) from t where %[1]s between -200 and 40000", a),
			fmt.Sprintf("select count(*) from t where %[1]s <> 0 and %[1]s > -129 and %[1]s < 128", a),
		)
	}
	return append(qs,
		"select a7, count(*), sum(a6), min(a6), max(a6), avg(a6) from t group by a7 order by a7",
		"select a7, sum(a1), sum(a4) from t where a6 > 1000 group by a7",
		"select a6, a7 from t where a6 >= 101000 order by a6 limit 5",
		"select sum(a6), count(*) from t where a6 < 100",
		"select a1, a2, a3, a4, a5, a6 from t where a8 = 7",
	)
}

// widthConfigs are the policies whose stores differ: dense columns,
// sparse partial loads, and auto's promotion between them.
func widthConfigs() []diffConfig {
	return []diffConfig{
		{"columns", Options{Policy: ColumnLoads, Workers: 2, ChunkSize: 8 << 10}},
		{"partial-v2", Options{Policy: PartialLoadsV2, Workers: 2, ChunkSize: 8 << 10}},
		{"auto", Options{Policy: Auto, Workers: 2, ChunkSize: 8 << 10}},
	}
}

// denseWidths returns the stored width of each of table name's dense
// int columns, -1 for a column not loaded, and checks that each one's
// MemSize is its rows times its width.
func denseWidths(t *testing.T, db *DB, name string) []int {
	t.Helper()
	tab, err := db.e.Catalog().Get(name)
	if err != nil {
		t.Fatal(err)
	}
	widths := make([]int, tab.Schema().NumCols())
	for c := range widths {
		d := tab.Dense(c)
		if d == nil {
			widths[c] = -1
			continue
		}
		widths[c] = d.Width()
		if got, want := d.MemSize(), int64(d.Len()*d.Width()); got != want {
			t.Errorf("a%d: MemSize %d, want %d rows x %d B = %d", c+1, got, d.Len(), d.Width(), want)
		}
	}
	return widths
}

func TestWidthTableMatchesOracle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	writeWidthTable(t, path, widthRows, 3)
	o := newOracle(t, map[string]string{"t": path})
	qs := widthQueries()
	for _, cfg := range widthConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			db := Open(cfg.opts)
			defer db.Close()
			if err := db.Attach("t", TableSpec{Path: path}); err != nil {
				t.Fatal(err)
			}
			for _, q := range qs {
				checkOracle(t, o, db, q, cfg.name)
			}
			if cfg.opts.Policy != ColumnLoads {
				return
			}
			if got := denseWidths(t, db, "t"); fmt.Sprint(got) != fmt.Sprint(widthWant) {
				t.Errorf("stored widths %v, want %v", got, widthWant)
			}
		})
	}
}

// TestWidthOneRowAndZeroTables: a one-row file and an all-zero column load
// at one byte and answer like the oracle.
func TestWidthOneRowAndZeroTables(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"one":  "-9223372036854775808,127,0\n",
		"zero": strings.Repeat("0,0\n", 2500),
	}
	paths := map[string]string{}
	for name, body := range files {
		paths[name] = filepath.Join(dir, name+".csv")
		if err := os.WriteFile(paths[name], []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	o := newOracle(t, paths)
	for _, cfg := range widthConfigs() {
		db := Open(cfg.opts)
		for name, p := range paths {
			if err := db.Attach(name, TableSpec{Path: p}); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range []string{
			"select sum(a1), min(a2), max(a2), count(*) from one where a2 > 126",
			"select a1, a2, a3 from one where a1 < 0 order by a2 limit 1",
			"select a3, count(*) from one group by a3",
			"select sum(a1), avg(a2), max(a1), count(*) from zero where a1 = 0 and a2 <> 1",
			"select a1, count(*) from zero group by a1",
			"select count(*) from zero where a1 < -1",
		} {
			checkOracle(t, o, db, q, cfg.name)
		}
		if cfg.opts.Policy == ColumnLoads {
			if got := fmt.Sprint(denseWidths(t, db, "one")); got != "[8 1 1]" {
				t.Errorf("one-row widths %s, want [8 1 1]", got)
			}
			if got := fmt.Sprint(denseWidths(t, db, "zero")); got != "[1 1]" {
				t.Errorf("all-zero widths %s, want [1 1]", got)
			}
		}
		db.Close()
	}
}

// TestWidthRefreshWidens: rows appended past a column's width widen the
// extended copy on Refresh; answers follow the grown file, and the
// governor's bytes stay the sum of the columns' MemSize.
func TestWidthRefreshWidens(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	writeWidthTable(t, path, widthRows, 5)
	db := Open(Options{Policy: ColumnLoads, Workers: 2, ChunkSize: 8 << 10, DisablePositionalMap: true, DisableSynopsis: true})
	defer db.Close()
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("select sum(a1), sum(a2), sum(a5), sum(a7), sum(a8) from t"); err != nil {
		t.Fatal(err)
	}
	before := denseWidths(t, db, "t")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// a1 (1 B) takes 128, a2 (2 B) MaxInt32, a5 (1 B) MinInt64; a7 and
	// a8 stay inside their widths.
	if _, err := f.WriteString("128,2147483647,0,0,-9223372036854775808,0,9,999\n1,1,1,1,1,1,-10,0\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ref, err := db.Refresh("t")
	if err != nil || !ref.Grown || ref.RowsAdded != 2 {
		t.Fatalf("Refresh = %+v, %v; want grown by 2 rows", ref, err)
	}
	after := denseWidths(t, db, "t")
	want := append([]int(nil), before...)
	want[0], want[1], want[4] = 2, 4, 8
	if fmt.Sprint(after) != fmt.Sprint(want) {
		t.Errorf("widths after Refresh %v, want %v (before %v)", after, want, before)
	}
	if used, size := db.MemStats().Used, db.MemSize(); used != size {
		t.Errorf("governor holds %d bytes, the columns' MemSize sums to %d", used, size)
	}
	o := newOracle(t, map[string]string{"t": path})
	raw := db.Work().RawBytesRead
	for _, q := range []string{
		"select sum(a1), min(a1), max(a1), count(*) from t where a1 > 100",
		"select max(a2), sum(a2) from t where a2 >= 32767",
		"select a5, count(*) from t group by a5 order by a5",
		"select a7, sum(a8) from t group by a7 order by a7",
	} {
		checkOracle(t, o, db, q, "grown")
	}
	if d := db.Work().RawBytesRead - raw; d != 0 {
		t.Errorf("queries over the extended columns read %d raw bytes, want 0", d)
	}
}

// TestWidthWarmRestart: a snapshot stores int columns at 8 bytes; the
// restored columns take the width rule's widths and answer as before.
func TestWidthWarmRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	writeWidthTable(t, path, widthRows, 7)
	opts := Options{Policy: ColumnLoads, Workers: 2, ChunkSize: 8 << 10, CacheDir: filepath.Join(dir, "cache")}
	q := "select a7, sum(a1), sum(a2), sum(a3), sum(a4), min(a5), max(a6), count(*) from t where a8 < 900 group by a7 order by a7"
	o := newOracle(t, map[string]string{"t": path})
	db := Open(opts)
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, o, db, q, "cold")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db = Open(opts)
	defer db.Close()
	if err := db.Attach("t", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	checkOracle(t, o, db, q, "warm")
	if w := db.Work(); w.RawBytesRead != 0 || w.SnapshotBytesRead == 0 {
		t.Errorf("warm query read %d raw and %d snapshot bytes, want 0 and > 0", w.RawBytesRead, w.SnapshotBytesRead)
	}
	if got := denseWidths(t, db, "t"); fmt.Sprint(got) != fmt.Sprint(widthWant) {
		t.Errorf("restored widths %v, want %v", got, widthWant)
	}
}

// WidthStreamForTest writes the width table into dir and returns its path
// with the oracle's answer to q over it, for the /v1/query/stream test in
// package nodb_test.
func WidthStreamForTest(t testing.TB, dir, q string) (path, want string) {
	path = filepath.Join(dir, "t.csv")
	writeWidthTable(t, path, widthRows, 11)
	want, _ = newOracle(t, map[string]string{"t": path}).answer(q)
	return path, want
}
