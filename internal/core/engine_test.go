package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nodb/internal/csvgen"
	"nodb/internal/plan"
	"nodb/internal/schema"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func newEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	if opts.SplitDir == "" {
		opts.SplitDir = filepath.Join(t.TempDir(), "splits")
	}
	return NewEngine(opts)
}

// allPolicies are every loading strategy; results must be identical under
// all of them.
var allPolicies = []plan.Policy{
	plan.PolicyFullLoad, plan.PolicyColumnLoads, plan.PolicyPartialV1,
	plan.PolicyPartialV2, plan.PolicySplitFiles, plan.PolicyExternal,
}

const basicCSV = "10,100,1000,5\n20,200,2000,6\n30,300,3000,7\n40,400,4000,8\n"

func TestQueryAggregatesAllPolicies(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "r.csv", basicCSV)
	for _, pol := range allPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			e := newEngine(t, Options{Policy: pol})
			if err := e.Attach("R", TableSpec{Path: path}); err != nil {
				t.Fatal(err)
			}
			res, err := e.Query("select sum(a1), min(a4), max(a3), avg(a2) from R where a1 > 15 and a1 < 45 and a2 > 150 and a2 < 450")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("rows = %d", len(res.Rows))
			}
			row := res.Rows[0]
			// Qualifying rows: (20,...), (30,...), (40,...).
			if row[0].I != 90 {
				t.Errorf("sum(a1) = %v, want 90", row[0])
			}
			if row[1].I != 6 {
				t.Errorf("min(a4) = %v, want 6", row[1])
			}
			if row[2].I != 4000 {
				t.Errorf("max(a3) = %v, want 4000", row[2])
			}
			if row[3].F != 300 {
				t.Errorf("avg(a2) = %v, want 300", row[3])
			}
		})
	}
}

func TestQuerySequenceConsistencyAcrossPolicies(t *testing.T) {
	// A workload of shifting, overlapping queries must give identical
	// answers under every policy (the adaptive store must never change
	// semantics).
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 5000, Cols: 4, Seed: 17}); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"select sum(a1), avg(a2) from G where a1 > 500 and a1 < 1500 and a2 > 100 and a2 < 4000",
		"select sum(a1), avg(a2) from G where a1 > 600 and a1 < 1400 and a2 > 200 and a2 < 3900", // narrower
		"select sum(a1), avg(a2) from G where a1 > 100 and a1 < 4000 and a2 > 50 and a2 < 4500",  // wider
		"select sum(a3), max(a4) from G where a3 > 1000 and a3 < 2000",                           // different columns
		"select count(*) from G where a1 between 1000 and 2000",
		"select sum(a1), avg(a2) from G where a1 > 600 and a1 < 1400 and a2 > 200 and a2 < 3900", // repeat
	}
	var want [][]string
	for pi, pol := range allPolicies {
		e := newEngine(t, Options{Policy: pol})
		if err := e.Attach("G", TableSpec{Path: path}); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			res, err := e.Query(q)
			if err != nil {
				t.Fatalf("policy %v query %d: %v", pol, qi, err)
			}
			var got []string
			for _, v := range res.Rows[0] {
				got = append(got, v.String())
			}
			if pi == 0 {
				want = append(want, got)
				continue
			}
			for ci := range got {
				if got[ci] != want[qi][ci] {
					t.Errorf("policy %v query %d col %d: %s != %s (reference %v)",
						pol, qi, ci, got[ci], want[qi][ci], allPolicies[0])
				}
			}
		}
	}
}

func TestJoinQueryAllPolicies(t *testing.T) {
	dir := t.TempDir()
	// R: key + value; S: key + value. 1:1 join on key.
	var r, s strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&r, "%d,%d\n", i, i*10)
		fmt.Fprintf(&s, "%d,%d\n", i, i*100)
	}
	rp := writeFile(t, dir, "r.csv", r.String())
	sp := writeFile(t, dir, "s.csv", s.String())
	for _, pol := range allPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			e := newEngine(t, Options{Policy: pol})
			e.Attach("R", TableSpec{Path: rp})
			e.Attach("S", TableSpec{Path: sp})
			res, err := e.Query("select count(*), sum(r.a2), sum(s.a2) from R r join S s on r.a1 = s.a1 where r.a1 >= 10 and r.a1 < 20")
			if err != nil {
				t.Fatal(err)
			}
			row := res.Rows[0]
			if row[0].I != 10 {
				t.Errorf("count = %v", row[0])
			}
			if row[1].I != 1450 { // sum of 10i for i=10..19 = 10*145
				t.Errorf("sum(r.a2) = %v, want 1450", row[1])
			}
			if row[2].I != 14500 {
				t.Errorf("sum(s.a2) = %v, want 14500", row[2])
			}
		})
	}
}

func TestGroupByOrderByLimit(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "t.csv", "1,10\n2,20\n1,30\n2,40\n3,50\n")
	e := newEngine(t, Options{Policy: plan.PolicyColumnLoads})
	e.Attach("T", TableSpec{Path: path})
	res, err := e.Query("select count(*), a1, sum(a2) from T group by a1 order by a1 desc limit 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Desc: a1=3 first (count 1, sum 50), then a1=2 (count 2, sum 60).
	if res.Rows[0][1].I != 3 || res.Rows[0][0].I != 1 || res.Rows[0][2].I != 50 {
		t.Errorf("row 0 = %v", res.Rows[0])
	}
	if res.Rows[1][1].I != 2 || res.Rows[1][0].I != 2 || res.Rows[1][2].I != 60 {
		t.Errorf("row 1 = %v", res.Rows[1])
	}
}

func TestPlainProjection(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "t.csv", "1,10\n2,20\n3,30\n")
	e := newEngine(t, Options{Policy: plan.PolicyPartialV2})
	e.Attach("T", TableSpec{Path: path})
	res, err := e.Query("select a2, a1 from T where a1 >= 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].I != 20 || res.Rows[0][1].I != 2 {
		t.Errorf("row 0 = %v", res.Rows[0])
	}
	if res.Columns[0] != "a2" || res.Columns[1] != "a1" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSelectStar(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "t.csv", "1,2\n3,4\n")
	e := newEngine(t, Options{Policy: plan.PolicyColumnLoads})
	e.Attach("T", TableSpec{Path: path})
	res, err := e.Query("select * from T")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Rows[0]) != 2 {
		t.Fatalf("star result shape: %v", res.Rows)
	}
}

func TestFileEditInvalidates(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "t.csv", "1\n2\n3\n")
	e := newEngine(t, Options{Policy: plan.PolicyColumnLoads})
	e.Attach("T", TableSpec{Path: path})
	res, _ := e.Query("select sum(a1) from T")
	if res.Rows[0][0].I != 6 {
		t.Fatalf("initial sum = %v", res.Rows[0][0])
	}
	// The user edits the file with a text editor (paper §2.1: "we can
	// actually edit the data with a text editor directly at any time and
	// fire a query again").
	time.Sleep(10 * time.Millisecond)
	writeFile(t, dir, "t.csv", "10\n20\n")
	res2, err := e.Query("select sum(a1) from T")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Rows[0][0].I != 30 {
		t.Errorf("post-edit sum = %v, want 30", res2.Rows[0][0])
	}
}

func TestMemoryBudgetEviction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 10000, Cols: 4, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, Options{Policy: plan.PolicyColumnLoads, MemoryBudget: 1000})
	e.Attach("G", TableSpec{Path: path})
	res, err := e.Query("select sum(a1) from G where a1 < 100")
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	// Budget is far below one column (80KB): state must be evicted.
	if got := e.Catalog().MemSize(); got > 1000 {
		t.Errorf("MemSize = %d after eviction, budget 1000", got)
	}
	// Queries still work (reload).
	res2, err := e.Query("select count(*) from G")
	if err != nil || res2.Rows[0][0].I != 10000 {
		t.Errorf("post-eviction query: %v, %v", res2, err)
	}
}

func TestQueryStatsAndCounters(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "t.csv", basicCSV)
	e := newEngine(t, Options{Policy: plan.PolicyColumnLoads})
	e.Attach("T", TableSpec{Path: path})
	res, err := e.Query("select sum(a1) from T")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Work.RawBytesRead == 0 {
		t.Error("first query should read raw bytes")
	}
	if res.Stats.Wall <= 0 {
		t.Error("wall time should be positive")
	}
	if !strings.Contains(res.Stats.Plan, "scan T") {
		t.Errorf("plan = %q", res.Stats.Plan)
	}
	res2, _ := e.Query("select sum(a1) from T")
	if res2.Stats.Work.RawBytesRead != 0 {
		t.Error("second query should be served from the store")
	}
}

func TestExternalPolicyNeverCaches(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "t.csv", basicCSV)
	e := newEngine(t, Options{Policy: plan.PolicyExternal})
	e.Attach("T", TableSpec{Path: path})
	e.Query("select sum(a1) from T")
	r2, _ := e.Query("select sum(a1) from T")
	if r2.Stats.Work.RawBytesRead == 0 {
		t.Error("external policy must re-read the file every query")
	}
}

func TestColumnLoadsLoadOnlyNeeded(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "t.csv", basicCSV)
	e := newEngine(t, Options{Policy: plan.PolicyColumnLoads})
	e.Attach("T", TableSpec{Path: path})
	e.Query("select sum(a1) from T")
	tab, _ := e.Catalog().Get("T")
	if tab.Dense(0) == nil {
		t.Error("a1 should be loaded")
	}
	if tab.Dense(2) != nil || tab.Dense(3) != nil {
		t.Error("untouched columns must stay unloaded (that is the point)")
	}
}

func TestExplain(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "t.csv", basicCSV)
	e := newEngine(t, Options{Policy: plan.PolicyPartialV2})
	e.Attach("T", TableSpec{Path: path})
	s, err := e.Explain("select sum(a1) from T where a1 > 5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "partial-load-v2") {
		t.Errorf("explain = %q", s)
	}
}

func TestSetPolicyMidSession(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "t.csv", basicCSV)
	e := newEngine(t, Options{Policy: plan.PolicyPartialV1})
	e.Attach("T", TableSpec{Path: path})
	r1, _ := e.Query("select sum(a1) from T")
	e.SetPolicy(plan.PolicyColumnLoads)
	r2, err := e.Query("select sum(a1) from T")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows[0][0].I != r2.Rows[0][0].I {
		t.Error("policy switch changed semantics")
	}
	if e.Policy() != plan.PolicyColumnLoads {
		t.Error("SetPolicy not applied")
	}
}

func TestQueryErrors(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "t.csv", basicCSV)
	e := newEngine(t, Options{})
	e.Attach("T", TableSpec{Path: path})
	for _, q := range []string{
		"select sum(a1) from Missing",
		"select nope from T",
		"not sql at all",
	} {
		if _, err := e.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestUnlinkAndTables(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "t.csv", basicCSV)
	e := newEngine(t, Options{})
	e.Attach("T", TableSpec{Path: path})
	if tables := e.Tables(); len(tables) != 1 || tables[0] != "T" {
		t.Errorf("Tables = %v", tables)
	}
	if err := e.Detach("T"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("select * from T"); err == nil {
		t.Error("query after unlink should fail")
	}
}

func TestResultString(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "t.csv", "1,2\n")
	e := newEngine(t, Options{})
	e.Attach("T", TableSpec{Path: path})
	res, _ := e.Query("select a1, a2 from T")
	s := res.String()
	if !strings.Contains(s, "a1") || !strings.Contains(s, "1") {
		t.Errorf("Result.String = %q", s)
	}
}

func TestHeaderedFileQueryByName(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "t.csv", "price,qty\n10,2\n20,3\n")
	e := newEngine(t, Options{Policy: plan.PolicyPartialV2})
	e.Attach("Sales", TableSpec{Path: path})
	res, err := e.Query("select sum(price), sum(qty) from Sales where price > 5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 30 || res.Rows[0][1].I != 5 {
		t.Errorf("named columns: %v", res.Rows[0])
	}
}

func TestFloatAndStringColumns(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "t.csv", "a,1.5,x\nb,2.5,y\nc,3.5,x\n")
	e := newEngine(t, Options{Policy: plan.PolicyColumnLoads})
	e.Attach("T", TableSpec{Path: path})
	res, err := e.Query("select count(*), sum(a2) from T where a3 = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 2 || res.Rows[0][1].F != 5.0 {
		t.Errorf("mixed types: %v", res.Rows[0])
	}
}

func TestMergeJoinEquivalence(t *testing.T) {
	// The engine uses hash joins; verify against merge join through exec
	// indirectly by checking a 1:1 join count.
	dir := t.TempDir()
	var r, s strings.Builder
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&r, "%d\n", i)
		fmt.Fprintf(&s, "%d\n", 499-i)
	}
	rp := writeFile(t, dir, "r.csv", r.String())
	sp := writeFile(t, dir, "s.csv", s.String())
	e := newEngine(t, Options{Policy: plan.PolicyColumnLoads})
	e.Attach("R", TableSpec{Path: rp})
	e.Attach("S", TableSpec{Path: sp})
	res, err := e.Query("select count(*) from R r join S s on r.a1 = s.a1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 500 {
		t.Errorf("1:1 join count = %v", res.Rows[0][0])
	}
}

func TestSchemaTypesExposed(t *testing.T) {
	dir := t.TempDir()
	path := writeFile(t, dir, "t.csv", "1,2.5,abc\n")
	e := newEngine(t, Options{})
	e.Attach("T", TableSpec{Path: path})
	sch, err := e.TableSchema("T")
	if err != nil {
		t.Fatal(err)
	}
	want := []schema.Type{schema.Int64, schema.Float64, schema.String}
	for i, w := range want {
		if sch.Columns[i].Type != w {
			t.Errorf("col %d type = %v, want %v", i, sch.Columns[i].Type, w)
		}
	}
}
