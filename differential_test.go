package nodb

// Differential property tests: randomized query workloads must produce
// identical answers under every loading policy, and the first
// configuration must match the reference evaluator (oracle_test.go). The
// adaptive machinery (partial loading, region reuse, split files, auto
// promotion) is pure mechanism — any observable difference is a bug.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// diffConfigs are every strategy under test, plus a memory-budgeted one.
type diffConfig struct {
	name string
	opts Options
}

var diffConfigs = []diffConfig{
	{"full", Options{Policy: FullLoad}},
	{"columns", Options{Policy: ColumnLoads}},
	{"partial-v1", Options{Policy: PartialLoadsV1}},
	{"partial-v2", Options{Policy: PartialLoadsV2}},
	{"external", Options{Policy: External}},
	{"auto", Options{Policy: Auto}},
	{"budget-64k", Options{Policy: ColumnLoads, MemoryBudget: 64 << 10}},
}

// writeRandomTable writes rows x cols integers in [0, maxVal).
func writeRandomTable(t *testing.T, path string, rows, cols int, maxVal int64, seed int64) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for i := 0; i < rows; i++ {
		sb.Reset()
		for c := 0; c < cols; c++ {
			if c > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", rng.Int63n(maxVal))
		}
		sb.WriteByte('\n')
		if _, err := f.WriteString(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// randomQuery generates a random aggregate query over a cols-wide table
// named "t" with values in [0, maxVal).
func randomQuery(rng *rand.Rand, cols int, maxVal int64) string {
	aggFns := []string{"sum", "min", "max", "avg", "count"}
	nAggs := 1 + rng.Intn(3)
	var items []string
	for i := 0; i < nAggs; i++ {
		fn := aggFns[rng.Intn(len(aggFns))]
		col := rng.Intn(cols) + 1
		items = append(items, fmt.Sprintf("%s(a%d)", fn, col))
	}
	if rng.Intn(3) == 0 {
		items = append(items, "count(*)")
	}
	q := "select " + strings.Join(items, ", ") + " from t"

	nPreds := rng.Intn(4)
	var preds []string
	for i := 0; i < nPreds; i++ {
		col := rng.Intn(cols) + 1
		switch rng.Intn(4) {
		case 0:
			lo := rng.Int63n(maxVal)
			preds = append(preds, fmt.Sprintf("a%d > %d", col, lo))
		case 1:
			hi := rng.Int63n(maxVal)
			preds = append(preds, fmt.Sprintf("a%d < %d", col, hi))
		case 2:
			lo := rng.Int63n(maxVal)
			preds = append(preds, fmt.Sprintf("a%d between %d and %d", col, lo, lo+rng.Int63n(maxVal/2)))
		default:
			preds = append(preds, fmt.Sprintf("a%d = %d", col, rng.Int63n(maxVal)))
		}
	}
	if len(preds) > 0 {
		q += " where " + strings.Join(preds, " and ")
	}
	return q
}

// TestDifferentialPolicies runs random workloads through every
// configuration and demands byte-identical results.
func TestDifferentialPolicies(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	const rows, cols = 2000, 5
	const maxVal = 1000
	writeRandomTable(t, path, rows, cols, maxVal, 99)

	rng := rand.New(rand.NewSource(7))
	queries := make([]string, 25)
	for i := range queries {
		queries[i] = randomQuery(rng, cols, maxVal)
	}

	configs := diffConfigs
	results := make([][]string, len(configs))
	for ci, cfg := range configs {
		db := Open(cfg.opts)
		if err := db.Attach("t", TableSpec{Path: path}); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: query %d (%s): %v", cfg.name, qi, q, err)
			}
			var row []string
			for _, v := range res.Rows[0] {
				row = append(row, v.String())
			}
			results[ci] = append(results[ci], strings.Join(row, "|"))
		}
		db.Close()
	}
	// Anchor the chain: the first configuration must match the oracle,
	// and every other one must match the first.
	o := newOracle(t, map[string]string{"t": path})
	for qi, q := range queries {
		if want, _ := o.answer(q); results[0][qi]+"\n" != want {
			t.Errorf("%s disagrees with the oracle on query %d (%s):\n  %s\n  %s",
				configs[0].name, qi, q, results[0][qi], want)
		}
	}
	for ci := 1; ci < len(configs); ci++ {
		for qi := range queries {
			if results[ci][qi] != results[0][qi] {
				t.Errorf("%s disagrees with %s on query %d (%s):\n  %s\n  %s",
					configs[ci].name, configs[0].name, qi, queries[qi],
					results[ci][qi], results[0][qi])
			}
		}
	}
}

// TestDifferentialSeeds repeats the differential run over several data
// seeds with a narrower policy set to stay fast.
func TestDifferentialSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential run")
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "t.csv")
			writeRandomTable(t, path, 1000, 4, 500, seed)
			rng := rand.New(rand.NewSource(seed * 13))

			ref := Open(Options{Policy: FullLoad})
			v2 := Open(Options{Policy: PartialLoadsV2})
			auto := Open(Options{Policy: Auto})
			for _, db := range []*DB{ref, v2, auto} {
				if err := db.Attach("t", TableSpec{Path: path}); err != nil {
					t.Fatal(err)
				}
			}
			for qi := 0; qi < 30; qi++ {
				q := randomQuery(rng, 4, 500)
				a, err := ref.Query(q)
				if err != nil {
					t.Fatalf("ref query %d: %v", qi, err)
				}
				for _, db := range []*DB{v2, auto} {
					b, err := db.Query(q)
					if err != nil {
						t.Fatalf("query %d: %v", qi, err)
					}
					for ci := range a.Rows[0] {
						if a.Rows[0][ci].String() != b.Rows[0][ci].String() {
							t.Fatalf("query %d (%s) col %d: %v vs %v",
								qi, q, ci, a.Rows[0][ci], b.Rows[0][ci])
						}
					}
				}
			}
		})
	}
}

// TestDifferentialJoins checks join queries across policies.
func TestDifferentialJoins(t *testing.T) {
	dir := t.TempDir()
	lp := filepath.Join(dir, "l.csv")
	rp := filepath.Join(dir, "r.csv")
	writeRandomTable(t, lp, 800, 3, 200, 5)
	writeRandomTable(t, rp, 600, 2, 200, 6)

	queries := []string{
		"select count(*) from l join r on l.a1 = r.a1",
		"select sum(l.a2), sum(r.a2) from l join r on l.a1 = r.a1 where l.a3 < 100",
		"select count(*), max(l.a3) from l join r on l.a2 = r.a2 where r.a1 > 50",
	}
	o := newOracle(t, map[string]string{"l": lp, "r": rp})
	var want []string
	for ci, cfg := range diffConfigs {
		db := Open(cfg.opts)
		db.Attach("l", TableSpec{Path: lp})
		db.Attach("r", TableSpec{Path: rp})
		for qi, q := range queries {
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%s: %v", cfg.name, err)
			}
			var row []string
			for _, v := range res.Rows[0] {
				row = append(row, v.String())
			}
			got := strings.Join(row, "|")
			if ci == 0 {
				if ref, _ := o.answer(q); got+"\n" != ref {
					t.Errorf("%s join query %d: %s != oracle %s", cfg.name, qi, got, ref)
				}
				want = append(want, got)
			} else if got != want[qi] {
				t.Errorf("%s join query %d: %s != %s", cfg.name, qi, got, want[qi])
			}
		}
		db.Close()
	}
}
