package nodb

// Differential tests over a mixed-type table. The int-only tables of the
// other suites cannot tell a group-by that hashes only int keys, or a sort
// that compares only ints, from a correct one; this corpus groups and
// orders by int, float and string columns, with many ties, int64's edge
// values and empty or contradictory ranges, against the oracle under every
// loading policy and several batch sizes.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// writeMixedTable writes rows of a1 (a small int, with MinInt64 and
// MaxInt64 rows), a2 (a float on a coarse grid, so values repeat), a3 (a
// word from a small vocabulary, prefixes included) and a4 (0..3: a
// low-cardinality column of ties).
func writeMixedTable(t *testing.T, path string, rows int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	words := []string{"ant", "ants", "an", "bee", "cat", "dog", "eel", "Fox", "gnu"}
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		a1 := rng.Int63n(101) - 50
		switch {
		case i%37 == 5:
			a1 = math.MaxInt64
		case i%41 == 7:
			a1 = math.MinInt64
		case i%43 == 11:
			a1 = math.MaxInt64 - 1
		}
		fmt.Fprintf(&sb, "%d,%s,%s,%d\n", a1,
			strconv.FormatFloat(float64(rng.Int63n(81)-40)/8, 'f', 3, 64),
			words[rng.Intn(len(words))], rng.Int63n(4))
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func mixedQueries() []string {
	return []string{
		// GROUP BY on each key type and on two keys.
		"select a1, count(*), sum(a2) from m group by a1",
		"select a2, count(*), min(a3), max(a1) from m group by a2",
		"select a3, count(*), avg(a2), min(a1), max(a4) from m group by a3",
		"select a4, a3, count(*), max(a2), sum(a4) from m group by a4, a3",
		"select a2, a4, count(*), min(a2) from m where a4 < 3 group by a2, a4",
		"select a3, count(*) from m group by a3 order by a3 desc",
		"select a4, avg(a1), count(a3) from m where a1 > -50 and a1 < 50 group by a4 order by a4 limit 2",
		// ORDER BY string, float, DESC and several keys, with ties.
		"select a3, a1 from m where a4 = 1 order by a3 limit 15",
		"select a2, a3 from m order by a2 desc limit 20",
		"select a4, a2, a1 from m order by a4, a2 desc limit 30",
		"select a3, a4, a2 from m order by a3 desc, a4 limit 40",
		"select a1, a4 from m where a4 = 2 order by a1",
		"select a2, a1 from m where a3 = 'cat' order by a2",
		// LIMIT 0 and a LIMIT past the result.
		"select a1 from m order by a1 limit 0",
		"select a3, a4 from m where a1 > 40 order by a4 limit 100000",
		// Boundary and empty ranges.
		"select count(*) from m where a1 > 5 and a1 < 3",
		"select count(*), sum(a4) from m where a1 > 9223372036854775807",
		"select count(*), min(a3) from m where a1 >= 9223372036854775807",
		"select count(*) from m where a1 = 9223372036854775807",
		"select count(*) from m where a1 between 9223372036854775806 and 9223372036854775807",
		"select a1, a2 from m where a1 >= 9223372036854775806 order by a2 limit 5",
		"select count(*), max(a1) from m where a1 < -9223372036854775807",
		"select count(*) from m where a1 > 10",
		// <>, and mixed int/float comparisons.
		"select count(*), min(a2) from m where a4 <> 2 and a3 <> 'cat'",
		"select count(*), sum(a4) from m where a1 > 2.5 and a1 < 30.5",
		"select count(*), max(a3) from m where a2 >= 1 and a2 < 4",
		"select count(*) from m where a3 between 'an' and 'bee'",
	}
}

// TestMixedTypeDifferential runs the mixed corpus through every loading
// policy at batch sizes 1, 7, 64 and 1024.
func TestMixedTypeDifferential(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.csv")
	writeMixedTable(t, path, 700, 27)
	o := newOracle(t, map[string]string{"m": path})
	for _, cfg := range diffConfigs(dir) {
		t.Run(cfg.name, func(t *testing.T) {
			for _, batch := range []int{1, 7, 64, 1024} {
				opts := cfg.opts
				opts.Workers = 1
				opts.BatchSize = batch
				if opts.SplitDir != "" {
					opts.SplitDir = filepath.Join(dir, fmt.Sprintf("sf-%s-%d", cfg.name, batch))
				}
				db := Open(opts)
				if err := db.Attach("m", TableSpec{Path: path}); err != nil {
					t.Fatal(err)
				}
				for _, q := range mixedQueries() {
					checkOracle(t, o, db, q, fmt.Sprintf("batch=%d", batch))
				}
				db.Close()
			}
		})
	}
}

// TestMaxInt64Predicates: no integer interval the engine records or folds
// a predicate into may drop MaxInt64. A retained partial load covering
// `a1 < 10` must not answer `a1 = MaxInt64` as empty, and the dense
// filter's folded `a1 >= 5` must find it.
func TestMaxInt64Predicates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, []byte("1\n9223372036854775807\n3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := newOracle(t, map[string]string{"t": path})
	queries := []string{
		"select count(*) from t where a1 < 10",
		"select count(*) from t where a1 = 9223372036854775807",
		"select count(*) from t where a1 >= 9223372036854775807",
		"select count(*) from t where a1 >= 5",
		"select count(*), sum(a1) from t where a1 > 2",
		"select count(*) from t where a1 >= 5",
	}
	for _, cfg := range []diffConfig{
		{"partial-v2", Options{Policy: PartialLoadsV2}},
		{"columns", Options{Policy: ColumnLoads}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			db := Open(cfg.opts)
			defer db.Close()
			if err := db.Attach("t", TableSpec{Path: path}); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				checkOracle(t, o, db, q, cfg.name)
			}
		})
	}
}
