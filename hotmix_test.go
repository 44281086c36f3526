package nodb_test

// The hot-serve statement mix over warm columns: a 1 %-selective range
// aggregate, a two-column conjunctive count, a 64-group GROUP BY, an
// ORDER BY ... LIMIT 10 and a point lookup. TestHotMixAllocsFlat holds
// the warm path to a per-query allocation count that does not grow with
// the table; BenchmarkHotMix (bench_test.go) times it.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"nodb"
)

// writeHotTable writes rows of a1, a2 (permutations of 0..rows-1), a3 (a
// three-decimal float), a4 (64 groups) and a5 (a skewed small int).
func writeHotTable(tb testing.TB, path string, rows int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(rows)))
	a1, a2 := rng.Perm(rows), rng.Perm(rows)
	b := make([]byte, 0, rows*32)
	for i := 0; i < rows; i++ {
		b = strconv.AppendInt(b, int64(a1[i]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(a2[i]), 10)
		b = append(b, ',')
		b = strconv.AppendFloat(b, float64(rng.Intn(1_000_000))/1000, 'f', 3, 64)
		b = append(b, ',')
		b = strconv.AppendInt(b, rng.Int63n(64), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(math.Sqrt(float64(rng.Intn(10_000)))), 10)
		b = append(b, '\n')
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		tb.Fatal(err)
	}
}

// hotShapes are the five statement shapes; i varies the literals, so every
// call is a distinct statement, as under hot-serve.
var hotShapes = []struct {
	name string
	sql  func(rows, i int) string
}{
	{"range-agg", func(n, i int) string {
		lo := i * 7919 % (n - n/100)
		return fmt.Sprintf("SELECT sum(a2), count(*), min(a5), max(a3) FROM hot WHERE a1 >= %d AND a1 < %d", lo, lo+n/100)
	}},
	{"conj-count", func(n, i int) string {
		w := int(float64(n) * math.Sqrt(0.1))
		lo1, lo2 := i*7919%(n-w), i*104729%(n-w)
		return fmt.Sprintf("SELECT count(*) FROM hot WHERE a1 > %d AND a1 < %d AND a2 > %d AND a2 < %d", lo1, lo1+w, lo2, lo2+w)
	}},
	{"group-by", func(n, i int) string {
		return fmt.Sprintf("SELECT a4, count(*), sum(a2) FROM hot WHERE a1 < %d GROUP BY a4 ORDER BY a4", n/20+i*7919%(n/10))
	}},
	{"top-k", func(n, i int) string {
		lo := i * 7919 % (n - n/100)
		return fmt.Sprintf("SELECT a2, a5, a3 FROM hot WHERE a1 >= %d AND a1 < %d ORDER BY a2 DESC LIMIT 10", lo, lo+n/100)
	}},
	{"point", func(n, i int) string {
		return fmt.Sprintf("SELECT a2, a3, a4, a5 FROM hot WHERE a1 = %d", i*7919%n)
	}},
}

// openHot attaches a rows-row hot table and warms every column it serves.
func openHot(tb testing.TB, rows int) *nodb.DB {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "hot.csv")
	writeHotTable(tb, path, rows)
	db := nodb.Open(nodb.Options{Policy: nodb.ColumnLoads, DisableRevalidation: true})
	if err := db.Attach("hot", nodb.TableSpec{Path: path}); err != nil {
		tb.Fatal(err)
	}
	if _, err := db.Query("SELECT sum(a1), sum(a2), max(a3), max(a4), max(a5) FROM hot"); err != nil {
		tb.Fatal(err)
	}
	return db
}

// TestHotMixAllocsFlat: on warm columns a hot-serve statement allocates a
// bounded number of times, independent of the table size — no term per
// batch or per row. Filtering, grouping and top-k reuse their buffers.
func TestHotMixAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 256k-row table")
	}
	const budget = 500
	allocs := map[string][2]float64{}
	for si, rows := range []int{32 << 10, 256 << 10} {
		db := openHot(t, rows)
		for _, shape := range hotShapes {
			i := 0
			n := testing.AllocsPerRun(20, func() {
				i++
				if _, err := db.QueryContext(context.Background(), shape.sql(rows, i)); err != nil {
					t.Fatal(err)
				}
			})
			a := allocs[shape.name]
			a[si] = n
			allocs[shape.name] = a
		}
		db.Close()
	}
	for name, a := range allocs {
		t.Logf("%-10s allocs/query: %4.0f at 32k rows, %4.0f at 256k rows", name, a[0], a[1])
		if a[1] > budget {
			t.Errorf("%s: %.0f allocations per query at 256k rows, want <= %d", name, a[1], budget)
		}
		// 8x the rows is 8x the batches: one allocation per batch would add
		// ~220 here.
		if a[1] > a[0]+32 {
			t.Errorf("%s: allocations grow with the table: %.0f at 32k rows, %.0f at 256k", name, a[0], a[1])
		}
	}
}
