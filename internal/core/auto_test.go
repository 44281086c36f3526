package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"nodb/internal/csvgen"
	"nodb/internal/plan"
)

func TestAutoPolicyPromotesHotColumns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 5000, Cols: 4, Seed: 31}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Policy: plan.PolicyAuto})
	if err := e.Attach("G", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}

	// First two queries: partial loads (no dense columns yet).
	for i := 0; i < 2; i++ {
		q := fmt.Sprintf("select sum(a1) from G where a1 > %d and a1 < %d", i*100, i*100+500)
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	tab, _ := e.Catalog().Get("G")
	if tab.Dense(0) != nil {
		t.Fatal("column should not be promoted after 2 touches")
	}
	if tab.Sparse(0, false) == nil {
		t.Fatal("partial loads should retain sparse data")
	}

	// Third touch promotes column 0 (and any other needed column at the
	// threshold).
	if _, err := e.Query("select sum(a1) from G where a1 > 900 and a1 < 1200"); err != nil {
		t.Fatal(err)
	}
	if tab.Dense(0) == nil {
		t.Fatal("column 0 should be promoted to dense after 3 touches")
	}
	// Untouched columns stay unloaded.
	if tab.Dense(3) != nil {
		t.Error("untouched column should stay unloaded")
	}

	// After promotion, repeated queries read nothing from the file.
	before := e.Counters().Snapshot()
	if _, err := e.Query("select sum(a1) from G where a1 > 10 and a1 < 4000"); err != nil {
		t.Fatal(err)
	}
	if d := e.Counters().Snapshot().Sub(before); d.RawBytesRead != 0 {
		t.Errorf("promoted column query read %d raw bytes", d.RawBytesRead)
	}
}

func TestAutoPolicyPromotesOnSparseGrowth(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 4000, Cols: 2, Seed: 32}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Policy: plan.PolicyAuto})
	if err := e.Attach("G", TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	// One very unselective query fills >25% of the column's rows; the
	// second query should promote even though touches < threshold.
	if _, err := e.Query("select sum(a1) from G where a1 < 3000"); err != nil {
		t.Fatal(err)
	}
	tab, _ := e.Catalog().Get("G")
	if tab.Dense(0) != nil {
		t.Fatal("first query should stay partial")
	}
	if _, err := e.Query("select sum(a1) from G where a1 > 3500"); err != nil {
		t.Fatal(err)
	}
	if tab.Dense(0) == nil {
		t.Error("column with large sparse footprint should be promoted")
	}
}

func TestAutoPolicyCorrectness(t *testing.T) {
	// Auto must agree with ColumnLoads on a shifting workload.
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 3000, Cols: 4, Seed: 33}); err != nil {
		t.Fatal(err)
	}
	ref := NewEngine(Options{Policy: plan.PolicyColumnLoads})
	auto := NewEngine(Options{Policy: plan.PolicyAuto})
	ref.Attach("G", TableSpec{Path: path})
	auto.Attach("G", TableSpec{Path: path})
	for i := 0; i < 8; i++ {
		lo := i * 300
		q := fmt.Sprintf("select sum(a1), avg(a2), count(*) from G where a1 > %d and a1 < %d", lo, lo+900)
		if i%3 == 2 {
			q = fmt.Sprintf("select sum(a3), max(a4) from G where a3 > %d and a3 < %d", lo, lo+900)
		}
		a, err := ref.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := auto.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range a.Rows[0] {
			if a.Rows[0][ci].String() != b.Rows[0][ci].String() {
				t.Fatalf("query %d col %d: ref=%v auto=%v", i, ci, a.Rows[0][ci], b.Rows[0][ci])
			}
		}
	}
}

// TestAggregatePlanIsVectorized: a dense aggregate runs through the
// vectorized pipeline, and its answer matches the closed form — a1 is a
// permutation of 0..999, so the 500 values below 500 sum to 124750.
func TestAggregatePlanIsVectorized(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 1000, Cols: 2, Seed: 61}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{Policy: plan.PolicyColumnLoads})
	e.Attach("G", TableSpec{Path: path})
	res, err := e.Query("select sum(a1), count(*) from G where a1 < 500")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Stats.Plan, "vectorized pipeline") || !strings.Contains(res.Stats.Plan, "Aggregate(2)") {
		t.Errorf("the aggregate should run through the pipeline: %q", res.Stats.Plan)
	}
	if sum, n := res.Rows[0][0].I, res.Rows[0][1].I; sum != 124750 || n != 500 {
		t.Errorf("sum, count = %d, %d; want 124750, 500", sum, n)
	}
}
