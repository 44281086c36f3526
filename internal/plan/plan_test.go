package plan

import (
	"fmt"
	"strings"
	"testing"

	"nodb/internal/exec"
	"nodb/internal/expr"
	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/storage"
)

// fakeCat implements CatalogInfo over in-memory schemas.
type fakeCat struct {
	schemas map[string]*schema.Schema
	dense   map[string]map[int]bool
}

func (f *fakeCat) TableSchema(name string) (*schema.Schema, error) {
	s, ok := f.schemas[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("no table %q", name)
	}
	return s, nil
}

func (f *fakeCat) DenseAll(name string, cols []int) bool {
	d := f.dense[strings.ToLower(name)]
	for _, c := range cols {
		if !d[c] {
			return false
		}
	}
	return true
}

func intSchema(names ...string) *schema.Schema {
	s := &schema.Schema{Delimiter: ','}
	for _, n := range names {
		s.Columns = append(s.Columns, schema.Column{Name: n, Type: schema.Int64})
	}
	return s
}

func testCat() *fakeCat {
	return &fakeCat{
		schemas: map[string]*schema.Schema{
			"r": intSchema("a1", "a2", "a3", "a4"),
			"s": intSchema("b1", "b2"),
		},
		dense: map[string]map[int]bool{"r": {}, "s": {}},
	}
}

func build(t *testing.T, query string, cat CatalogInfo, pol Policy) *Plan {
	t.Helper()
	stmt, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Build(stmt, cat, pol)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func TestBuildQ1(t *testing.T) {
	p := build(t, "select sum(a1),min(a4),max(a3),avg(a2) from R where a1>10 and a1<20 and a2>30 and a2<40",
		testCat(), PolicyColumnLoads)
	if len(p.Tables) != 1 {
		t.Fatalf("tables = %d", len(p.Tables))
	}
	tp := p.Tables[0]
	if len(tp.NeedCols) != 4 { // all four attributes are referenced
		t.Errorf("NeedCols = %v", tp.NeedCols)
	}
	if len(tp.Conj.Preds) != 4 {
		t.Errorf("preds = %d", len(tp.Conj.Preds))
	}
	if tp.LoadOp != LoadColumns {
		t.Errorf("LoadOp = %v", tp.LoadOp)
	}
	if len(p.Aggs) != 4 || p.Aggs[0].Kind != sql.AggSum || p.Aggs[0].Col != (exec.ColKey{Tab: 0, Col: 0}) {
		t.Errorf("aggs = %v", p.Aggs)
	}
	if p.Output[1] != "min(a4)" {
		t.Errorf("output = %v", p.Output)
	}
}

func TestRewriteLoadOps(t *testing.T) {
	cat := testCat()
	q := "select sum(a1) from R where a2 > 5"
	cases := []struct {
		pol  Policy
		want LoadOp
	}{
		{PolicyFullLoad, LoadFull},
		{PolicyColumnLoads, LoadColumns},
		{PolicyPartialV1, LoadPartialEphemeral},
		{PolicyPartialV2, LoadPartialRetained},
		{PolicyExternal, LoadExternal},
	}
	for _, c := range cases {
		p := build(t, q, cat, c.pol)
		if got := p.Tables[0].LoadOp; got != c.want {
			t.Errorf("policy %v: LoadOp = %v, want %v", c.pol, got, c.want)
		}
	}
}

func TestRewriteLoadNoneWhenDense(t *testing.T) {
	cat := testCat()
	cat.dense["r"] = map[int]bool{0: true, 1: true}
	p := build(t, "select sum(a1) from R where a2 > 5", cat, PolicyColumnLoads)
	if p.Tables[0].LoadOp != LoadNone {
		t.Errorf("LoadOp = %v, want none (cols loaded)", p.Tables[0].LoadOp)
	}
	// Full policy still requires ALL columns loaded.
	p2 := build(t, "select sum(a1) from R where a2 > 5", cat, PolicyFullLoad)
	if p2.Tables[0].LoadOp != LoadFull {
		t.Errorf("full policy LoadOp = %v, want full-load", p2.Tables[0].LoadOp)
	}
	cat.dense["r"] = map[int]bool{0: true, 1: true, 2: true, 3: true}
	p3 := build(t, "select sum(a1) from R where a2 > 5", cat, PolicyFullLoad)
	if p3.Tables[0].LoadOp != LoadNone {
		t.Errorf("fully loaded table LoadOp = %v", p3.Tables[0].LoadOp)
	}
}

func TestBuildJoin(t *testing.T) {
	p := build(t, "select sum(r.a2) from R r join S s on r.a1 = s.b1 where s.b2 > 3",
		testCat(), PolicyColumnLoads)
	if len(p.Tables) != 2 {
		t.Fatalf("tables = %d", len(p.Tables))
	}
	if len(p.Joins) != 1 {
		t.Fatalf("joins = %d", len(p.Joins))
	}
	j := p.Joins[0]
	if j.Left != (exec.ColKey{Tab: 0, Col: 0}) || j.Right != (exec.ColKey{Tab: 1, Col: 0}) {
		t.Errorf("join edge = %+v", j)
	}
	// Join keys and predicate columns are needed.
	if got := p.Tables[0].NeedCols; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("R NeedCols = %v", got)
	}
	if got := p.Tables[1].NeedCols; len(got) != 2 {
		t.Errorf("S NeedCols = %v", got)
	}
	// Predicate on s.b2 landed on table 1.
	if len(p.Tables[1].Conj.Preds) != 1 || p.Tables[1].Conj.Preds[0].Col != 1 {
		t.Errorf("S conj = %v", p.Tables[1].Conj)
	}
	if len(p.Tables[0].Conj.Preds) != 0 {
		t.Errorf("R conj should be empty: %v", p.Tables[0].Conj)
	}
}

func TestBuildUnqualifiedAcrossTables(t *testing.T) {
	// b2 exists only in S → resolvable unqualified.
	p := build(t, "select sum(b2) from R join S on a1 = b1", testCat(), PolicyColumnLoads)
	if p.Aggs[0].Col != (exec.ColKey{Tab: 1, Col: 1}) {
		t.Errorf("agg col = %v", p.Aggs[0].Col)
	}
}

func TestBuildErrors(t *testing.T) {
	cat := testCat()
	bad := []string{
		"select a1 from NoSuchTable",
		"select nope from R",
		"select sum(a1) from R where nope > 1",
		"select r.a9 from R r",
		"select x.a1 from R r",
		"select a1, sum(a2) from R",              // plain + agg without group by
		"select a1 from R group by a1",           // group by without aggregates
		"select a2, count(*) from R group by a1", // a2 not a key
		"select a1 from R order by a2",           // order by col not selected
	}
	for _, q := range bad {
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := Build(stmt, cat, PolicyColumnLoads); err == nil {
			t.Errorf("Build(%q) should fail", q)
		}
	}
}

func TestBuildAmbiguousColumn(t *testing.T) {
	cat := &fakeCat{
		schemas: map[string]*schema.Schema{
			"a": intSchema("x"),
			"b": intSchema("x"),
		},
		dense: map[string]map[int]bool{"a": {}, "b": {}},
	}
	stmt, _ := sql.Parse("select x from A join B on a.x = b.x")
	if _, err := Build(stmt, cat, PolicyColumnLoads); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column should fail: %v", err)
	}
}

func TestBuildSumOnStringRejected(t *testing.T) {
	cat := &fakeCat{
		schemas: map[string]*schema.Schema{"t": {Columns: []schema.Column{{Name: "s", Type: schema.String}}}},
		dense:   map[string]map[int]bool{"t": {}},
	}
	stmt, _ := sql.Parse("select sum(s) from T")
	if _, err := Build(stmt, cat, PolicyColumnLoads); err == nil {
		t.Error("sum(string) should be rejected")
	}
	stmt2, _ := sql.Parse("select min(s) from T")
	if _, err := Build(stmt2, cat, PolicyColumnLoads); err != nil {
		t.Errorf("min(string) is fine: %v", err)
	}
}

func TestBuildGroupBySlots(t *testing.T) {
	p := build(t, "select count(*), a1 from R group by a1", testCat(), PolicyColumnLoads)
	if len(p.Slots) != 2 {
		t.Fatalf("slots = %v", p.Slots)
	}
	if !p.Slots[0].Agg || p.Slots[1].Agg {
		t.Errorf("slot kinds = %v", p.Slots)
	}
	if p.Output[0] != "count(*)" || p.Output[1] != "a1" {
		t.Errorf("output = %v", p.Output)
	}
}

func TestBuildOrderByPosition(t *testing.T) {
	p := build(t, "select count(*), a1 from R group by a1 order by a1 desc", testCat(), PolicyColumnLoads)
	if len(p.OrderBy) != 1 || p.OrderBy[0].Index != 1 || !p.OrderBy[0].Desc {
		t.Errorf("order by = %v", p.OrderBy)
	}
}

func TestBuildStar(t *testing.T) {
	p := build(t, "select * from R limit 2", testCat(), PolicyColumnLoads)
	if len(p.Project) != 4 || len(p.Output) != 4 || p.Limit != 2 {
		t.Errorf("star plan: project=%v output=%v limit=%d", p.Project, p.Output, p.Limit)
	}
	if p.Tables[0].NeedCols[3] != 3 {
		t.Errorf("star NeedCols = %v", p.Tables[0].NeedCols)
	}
}

func TestBuildCountStarMinimalColumns(t *testing.T) {
	p := build(t, "select count(*) from R", testCat(), PolicyColumnLoads)
	if len(p.Tables[0].NeedCols) != 1 || p.Tables[0].NeedCols[0] != 0 {
		t.Errorf("count(*) NeedCols = %v, want [0]", p.Tables[0].NeedCols)
	}
}

func TestBetweenBinding(t *testing.T) {
	p := build(t, "select sum(a1) from R where a2 between 5 and 10", testCat(), PolicyColumnLoads)
	pr := p.Tables[0].Conj.Preds[0]
	if !pr.Between || pr.Col != 1 || pr.Val.I != 5 || pr.Val2.I != 10 {
		t.Errorf("between pred = %+v", pr)
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	for _, pol := range []Policy{PolicyFullLoad, PolicyColumnLoads, PolicyPartialV1, PolicyPartialV2, PolicyExternal, PolicyAuto} {
		got, err := ParsePolicy(pol.String())
		if err != nil || got != pol {
			t.Errorf("round trip %v: %v, %v", pol, got, err)
		}
	}
	for _, name := range []string{"bogus", "splitfiles", "split"} {
		if _, err := ParsePolicy(name); err == nil {
			t.Errorf("policy %q should fail", name)
		}
	}
}

func TestPlanString(t *testing.T) {
	p := build(t, "select sum(a1) from R where a1 > 5", testCat(), PolicyColumnLoads)
	s := p.String()
	if !strings.Contains(s, "column-load") || !strings.Contains(s, "scan R") {
		t.Errorf("Plan.String = %q", s)
	}
}

func TestLoadOpString(t *testing.T) {
	for op, want := range map[LoadOp]string{
		LoadNone: "none", LoadFull: "full-load", LoadColumns: "column-load",
		LoadPartialEphemeral: "partial-load-v1", LoadPartialRetained: "partial-load-v2",
		LoadExternal: "external-scan",
	} {
		if op.String() != want {
			t.Errorf("LoadOp %d = %q, want %q", op, op.String(), want)
		}
	}
}

// TestPlanStringText pins the rendering of a plan with every part — two
// scans, one with predicates of each literal type, a join, grouping,
// aggregates — byte for byte.
func TestPlanStringText(t *testing.T) {
	p := &Plan{
		Tables: []TablePlan{
			{Name: "R", Ordinal: 0, NeedCols: []int{0, 2}, LoadOp: LoadColumns, Pins: []int{0, 1, 2},
				Conj: expr.Conjunction{Preds: []expr.Pred{
					{Col: 1, Op: expr.Gt, Val: storage.IntValue(-5)},
					{Col: 2, Op: expr.Le, Val: storage.FloatValue(2.5e-7)},
					{Col: 0, Between: true, Val: storage.FloatValue(1e21), Val2: storage.IntValue(7)},
					{Col: 3, Op: expr.Ne, Val: storage.StringValue("a b")},
				}}},
			{Name: "S", Ordinal: 1, LoadOp: LoadPartialRetained},
		},
		Joins:   []JoinEdge{{Left: exec.ColKey{Tab: 0, Col: 2}, Right: exec.ColKey{Tab: 1, Col: 0}}},
		GroupBy: []exec.ColKey{{Tab: 0, Col: 0}, {Tab: 1, Col: 3}},
		Aggs:    []exec.AggSpec{{Kind: sql.AggCount, Star: true}, {Kind: sql.AggSum, Col: exec.ColKey{Col: 2}}},
		Output:  []string{"a1", "count(*)", "sum(a3)"},
	}
	const want = `scan R (t0) cols=[0 2] load=column-load pin=[0 1 2] where col1 > -5 AND col2 <= 2.5e-07 AND col0 BETWEEN 1e+21 AND 7 AND col3 <> a b
scan S (t1) cols=[] load=partial-load-v2 pin=[]
hash join t0.c2 = t1.c0
group by [t0.c0 t1.c3]
aggregate 2 exprs
output [a1 count(*) sum(a3)]
`
	if got := p.String(); got != want {
		t.Fatalf("Plan.String =\n%s\nwant\n%s", got, want)
	}
}
