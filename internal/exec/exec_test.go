package exec

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"nodb/internal/expr"
	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/storage"
)

// SortRows sorts result rows in place by the given keys: the reference
// SortOp and TopKOp are held to.
func SortRows(rows [][]storage.Value, keys []SortKey) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			c := rows[i][k.Index].Compare(rows[j][k.Index])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// LimitRows truncates rows to at most n (n < 0 means no limit).
func LimitRows(rows [][]storage.Value, n int) [][]storage.Value {
	if n < 0 || n >= len(rows) {
		return rows
	}
	return rows[:n]
}

// mkSource builds a dense source from int columns.
func mkSource(cols map[int][]int64) DenseSource {
	src := DenseSource{Columns: map[int]*storage.DenseColumn{}}
	for idx, vals := range cols {
		c := storage.NewDense(schema.Int64, len(vals))
		c.Ints = append(c.Ints, vals...)
		src.Columns[idx] = c
		src.NumRows = int64(len(vals))
	}
	return src
}

func intPred(col int, op expr.CmpOp, v int64) expr.Pred {
	return expr.Pred{Col: col, Op: op, Val: storage.IntValue(v)}
}

// selectDense runs the dense select over cols and drains the survivors
// into a view.
func selectDense(src DenseSource, conj expr.Conjunction, cols []int) (*View, error) {
	op, err := NewDenseSelect(src, 0, cols, conj, 3)
	if err != nil {
		return nil, err
	}
	return DrainView(op)
}

func TestSelectDense(t *testing.T) {
	src := mkSource(map[int][]int64{
		0: {5, 15, 25, 35, 45},
		1: {1, 2, 3, 4, 5},
	})
	conj := expr.Conjunction{Preds: []expr.Pred{
		intPred(0, expr.Gt, 10),
		intPred(0, expr.Lt, 40),
	}}
	v, err := selectDense(src, conj, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 3 {
		t.Fatalf("Len = %d, want 3", v.Len())
	}
	if c1 := v.Col(ColKey{0, 1}); c1.Ints[0] != 2 || c1.Ints[2] != 4 {
		t.Errorf("col 1 values = %v", c1.Ints)
	}
}

func TestSelectDenseNoPredicates(t *testing.T) {
	src := mkSource(map[int][]int64{0: {1, 2, 3}})
	v, err := selectDense(src, expr.Conjunction{}, []int{0})
	if err != nil || v.Len() != 3 {
		t.Fatalf("full select: %v len=%d", err, v.Len())
	}
	// A column-less scan (count(*) alone) still counts its rows.
	if v, err := selectDense(src, expr.Conjunction{}, nil); err != nil || v.Len() != 3 {
		t.Fatalf("column-less select: %v len=%d", err, v.Len())
	}
}

func TestSelectDenseMissingColumn(t *testing.T) {
	src := mkSource(map[int][]int64{0: {1}})
	if _, err := selectDense(src, expr.Conjunction{Preds: []expr.Pred{intPred(5, expr.Gt, 0)}}, []int{0}); err == nil {
		t.Error("missing predicate column should error")
	}
	if _, err := selectDense(src, expr.Conjunction{}, []int{9}); err == nil {
		t.Error("missing needed column should error")
	}
}

// TestSelectDenseMixedTypesSlowPath compares columns with literals of the
// other numeric type.
func TestSelectDenseMixedTypesSlowPath(t *testing.T) {
	src := mkSource(map[int][]int64{1: {1, 2, 3}})
	fc := storage.NewDense(schema.Float64, 3)
	fc.Floats = append(fc.Floats, 1.5, 2.5, 3.5)
	src.Columns[0] = fc
	for _, c := range []struct {
		pred expr.Pred
		want int
	}{
		{expr.Pred{Col: 0, Op: expr.Gt, Val: storage.FloatValue(2.0)}, 2},
		{expr.Pred{Col: 0, Op: expr.Lt, Val: storage.IntValue(3)}, 2},
		{expr.Pred{Col: 1, Op: expr.Ge, Val: storage.FloatValue(1.5)}, 2},
	} {
		v, err := selectDense(src, expr.Conjunction{Preds: []expr.Pred{c.pred}}, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if v.Len() != c.want {
			t.Errorf("%+v: Len = %d, want %d", c.pred, v.Len(), c.want)
		}
	}
}

// aggregateRow folds every row of v into specs through AggOp.
func aggregateRow(t *testing.T, op Operator, specs []AggSpec) []storage.Value {
	t.Helper()
	out := make([]int, len(specs))
	for i := range out {
		out[i] = i
	}
	rows, err := drainRows(NewAggOp(op, specs, out), len(specs))
	if err != nil || len(rows) != 1 {
		t.Fatalf("aggregate: %d rows, %v", len(rows), err)
	}
	return rows[0]
}

func TestAggregate(t *testing.T) {
	v := mkView(0, map[int][]int64{0: {1, 2, 3, 4}, 1: {10, 20, 30, 40}})
	got := aggregateRow(t, NewViewScan(v, 3), []AggSpec{
		{Kind: sql.AggSum, Col: ColKey{0, 0}},
		{Kind: sql.AggMin, Col: ColKey{0, 1}},
		{Kind: sql.AggMax, Col: ColKey{0, 1}},
		{Kind: sql.AggAvg, Col: ColKey{0, 0}},
		{Kind: sql.AggCount, Star: true},
	})
	if got[0].I != 10 {
		t.Errorf("sum = %v", got[0])
	}
	if got[1].I != 10 || got[2].I != 40 {
		t.Errorf("min/max = %v/%v", got[1], got[2])
	}
	if got[3].F != 2.5 {
		t.Errorf("avg = %v", got[3])
	}
	if got[4].I != 4 {
		t.Errorf("count = %v", got[4])
	}
}

func TestAggregateEmptyView(t *testing.T) {
	src := mkSource(map[int][]int64{0: {1, 2}})
	none := NewFilterOp(mustDenseScan(t, src, 0, []int{0}, 0), 0, expr.Conjunction{Preds: []expr.Pred{intPred(0, expr.Gt, 100)}})
	got := aggregateRow(t, none, []AggSpec{
		{Kind: sql.AggSum, Col: ColKey{0, 0}},
		{Kind: sql.AggCount, Star: true},
		{Kind: sql.AggAvg, Col: ColKey{0, 0}},
	})
	if got[0].I != 0 || got[1].I != 0 {
		t.Errorf("empty aggregates = %v", got)
	}
	if !math.IsNaN(got[2].F) {
		t.Errorf("avg over empty should be NaN, got %v", got[2])
	}
}

func TestAggregateFloatColumn(t *testing.T) {
	v := NewView()
	fc := storage.NewDense(schema.Float64, 2)
	fc.Floats = append(fc.Floats, 1.5, 2.5)
	v.AddCol(ColKey{0, 0}, fc)
	if got := aggregateRow(t, NewViewScan(v, 0), []AggSpec{{Kind: sql.AggSum, Col: ColKey{0, 0}}}); got[0].F != 4.0 {
		t.Errorf("float sum = %v", got)
	}
}

func TestGroupBy(t *testing.T) {
	src := mkSource(map[int][]int64{
		0: {1, 2, 1, 2, 1}, // key
		1: {10, 20, 30, 40, 50},
	})
	v, err := selectDense(src, expr.Conjunction{}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := groupRows(v, []ColKey{{0, 0}}, []AggSpec{
		{Kind: sql.AggSum, Col: ColKey{0, 1}},
		{Kind: sql.AggCount, Star: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups = %d, want 2", len(rows))
	}
	// First-appearance order: key 1 first.
	if rows[0][0].I != 1 || rows[0][1].I != 90 || rows[0][2].I != 3 {
		t.Errorf("group 1 = %v", rows[0])
	}
	if rows[1][0].I != 2 || rows[1][1].I != 60 || rows[1][2].I != 2 {
		t.Errorf("group 2 = %v", rows[1])
	}
}

func TestSortAndLimit(t *testing.T) {
	rows := [][]storage.Value{
		{storage.IntValue(3), storage.IntValue(1)},
		{storage.IntValue(1), storage.IntValue(2)},
		{storage.IntValue(2), storage.IntValue(3)},
	}
	SortRows(rows, []SortKey{{Index: 0}})
	if rows[0][0].I != 1 || rows[2][0].I != 3 {
		t.Errorf("asc sort: %v", rows)
	}
	SortRows(rows, []SortKey{{Index: 0, Desc: true}})
	if rows[0][0].I != 3 {
		t.Errorf("desc sort: %v", rows)
	}
	lim := LimitRows(rows, 2)
	if len(lim) != 2 {
		t.Errorf("limit: %d", len(lim))
	}
	if len(LimitRows(rows, -1)) != 3 || len(LimitRows(rows, 10)) != 3 {
		t.Error("limit edge cases")
	}
}

func TestSortStableMultiKey(t *testing.T) {
	rows := [][]storage.Value{
		{storage.IntValue(1), storage.IntValue(9)},
		{storage.IntValue(1), storage.IntValue(3)},
		{storage.IntValue(0), storage.IntValue(5)},
	}
	SortRows(rows, []SortKey{{Index: 0}, {Index: 1}})
	if rows[0][1].I != 5 || rows[1][1].I != 3 || rows[2][1].I != 9 {
		t.Errorf("multi-key sort: %v", rows)
	}
}

func mkView(tab int, cols map[int][]int64) *View {
	v := NewView()
	n := 0
	for idx, vals := range cols {
		c := storage.NewDense(schema.Int64, len(vals))
		c.Ints = append(c.Ints, vals...)
		v.AddCol(ColKey{tab, idx}, c)
		n = len(vals)
	}
	v.Rows = make([]int64, n)
	for i := range v.Rows {
		v.Rows[i] = int64(i)
	}
	return v
}

// joinViews runs HashJoinOp with left probing and right building.
func joinViews(left, right *View, lkey, rkey ColKey) (*View, error) {
	return DrainView(NewHashJoinOp(NewViewScan(left, 2), NewViewScan(right, 2), lkey, rkey, 3))
}

func TestHashJoin(t *testing.T) {
	left := mkView(0, map[int][]int64{0: {1, 2, 3}, 1: {10, 20, 30}})
	right := mkView(1, map[int][]int64{0: {2, 3, 4}, 1: {200, 300, 400}})
	out, err := joinViews(left, right, ColKey{0, 0}, ColKey{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("join Len = %d, want 2", out.Len())
	}
	// Probe order: rows (2,20,2,200) then (3,30,3,300).
	for i, k := range []int64{2, 3} {
		if out.Value(ColKey{0, 0}, i).I != k || out.Value(ColKey{0, 1}, i).I != k*10 ||
			out.Value(ColKey{1, 0}, i).I != k || out.Value(ColKey{1, 1}, i).I != k*100 {
			t.Errorf("row %d misaligned", i)
		}
	}
}

func TestHashJoinDuplicates(t *testing.T) {
	left := mkView(0, map[int][]int64{0: {1, 1, 2}})
	right := mkView(1, map[int][]int64{0: {1, 1}})
	out, err := joinViews(left, right, ColKey{0, 0}, ColKey{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 { // 2x2 cross product of the 1-runs
		t.Errorf("dup join Len = %d, want 4", out.Len())
	}
}

func TestJoinErrors(t *testing.T) {
	left := mkView(0, map[int][]int64{0: {1}})
	right := mkView(1, map[int][]int64{0: {1}})
	if _, err := joinViews(left, right, ColKey{0, 9}, ColKey{1, 0}); err == nil {
		t.Error("bad left key should error")
	}
	if _, err := joinViews(left, right, ColKey{0, 0}, ColKey{1, 9}); err == nil {
		t.Error("bad right key should error")
	}
	strs := NewView()
	sc := storage.NewDense(schema.String, 1)
	sc.Append(storage.StringValue("1"))
	strs.AddCol(ColKey{1, 0}, sc)
	if _, err := joinViews(left, strs, ColKey{0, 0}, ColKey{1, 0}); err == nil {
		t.Error("int key against string key should error")
	}
}

// TestHashJoinNumericKeys joins int and float keys by value: 1000000
// meets 1e6, -0 meets 0, NaN meets NaN, and 1.5 meets no int.
func TestHashJoinNumericKeys(t *testing.T) {
	left := mkView(0, map[int][]int64{0: {1_000_000, 0, 2, 7}})
	right := NewView()
	fc := storage.NewDense(schema.Float64, 0)
	fc.Floats = append(fc.Floats, 1e6, math.Copysign(0, -1), 1.5, 7, 7)
	right.AddCol(ColKey{1, 0}, fc)
	out, err := joinViews(left, right, ColKey{0, 0}, ColKey{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for i := 0; i < out.Len(); i++ {
		got = append(got, out.Value(ColKey{0, 0}, i).I)
	}
	if want := []int64{1_000_000, 0, 7, 7}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("int-float join keys = %v, want %v", got, want)
	}

	nan := NewView()
	nc := storage.NewDense(schema.Float64, 0)
	nc.Floats = append(nc.Floats, math.NaN(), 0, math.Copysign(0, -1))
	nan.AddCol(ColKey{0, 0}, nc)
	other := NewView()
	oc := storage.NewDense(schema.Float64, 0)
	oc.Floats = append(oc.Floats, math.Float64frombits(0x7ff8000000000001), 0)
	other.AddCol(ColKey{1, 0}, oc)
	if out, err := joinViews(nan, other, ColKey{0, 0}, ColKey{1, 0}); err != nil || out.Len() != 3 {
		t.Errorf("float-float join = %d rows (%v), want 3: NaN=NaN, 0=0, -0=0", out.Len(), err)
	}
}

func TestHashJoinStringKeys(t *testing.T) {
	mk := func(tab int, keys []string) *View {
		v := NewView()
		c := storage.NewDense(schema.String, 0)
		for _, k := range keys {
			c.Append(storage.StringValue(k))
		}
		v.AddCol(ColKey{tab, 0}, c)
		return v
	}
	l := mk(0, []string{"a", "b", "c"})
	r := mk(1, []string{"b", "c", "d"})
	out, err := joinViews(l, r, ColKey{0, 0}, ColKey{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("string join Len = %d, want 2", out.Len())
	}
}

// TestLimitOverHashJoinStopsProbe shows the join streams its probe side:
// once a LIMIT has its rows, the rest of the left input is never pulled.
func TestLimitOverHashJoinStopsProbe(t *testing.T) {
	keys := make([]int64, 100)
	for i := range keys {
		keys[i] = int64(i)
	}
	src := mkSource(map[int][]int64{0: keys})
	probe := &pullCounter{child: mustDenseScan(t, src, 0, []int{0}, 10)}
	j := NewHashJoinOp(probe, mustDenseScan(t, src, 1, []int{0}, 10), ColKey{0, 0}, ColKey{1, 0}, 10)
	rows, err := drainRows(NewLimitOp(NewProjectOp(j, []ColKey{{0, 0}}), 15), 1)
	if err != nil || len(rows) != 15 {
		t.Fatalf("limit over join: %d rows, %v", len(rows), err)
	}
	if probe.pulls != 2 {
		t.Errorf("join pulled %d probe batches for 15 rows, want 2 (of 10)", probe.pulls)
	}
	if probe.closed == 0 {
		t.Error("limit did not close the join's probe side")
	}
}

// BenchmarkHashJoin100k joins two 100k-row dense scans 1:1: build the
// right side's index, stream the left side through it.
func BenchmarkHashJoin100k(b *testing.B) {
	n := 100_000
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	src := mkSource(map[int][]int64{0: keys})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, _ := NewDenseScan(src, 0, []int{0}, DefaultBatchSize)
		r, _ := NewDenseScan(src, 1, []int{0}, DefaultBatchSize)
		j := NewHashJoinOp(l, r, ColKey{0, 0}, ColKey{1, 0}, DefaultBatchSize)
		rows := 0
		for {
			bt, err := j.Next()
			if err != nil {
				b.Fatal(err)
			}
			if bt == nil {
				break
			}
			rows += bt.Rows()
		}
		if rows != n {
			b.Fatalf("joined %d rows, want %d", rows, n)
		}
	}
}

func TestGroupByStringKeys(t *testing.T) {
	v := NewView()
	keys := storage.NewDense(schema.String, 0)
	vals := storage.NewDense(schema.Int64, 0)
	for _, r := range []struct {
		k string
		v int64
	}{{"red", 1}, {"blue", 2}, {"red", 3}, {"blue", 4}, {"green", 5}} {
		keys.Append(storage.StringValue(r.k))
		vals.Append(storage.IntValue(r.v))
	}
	v.AddCol(ColKey{0, 0}, keys)
	v.AddCol(ColKey{0, 1}, vals)

	rows, err := groupRows(v, []ColKey{{0, 0}}, []AggSpec{{Kind: sql.AggSum, Col: ColKey{0, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, r := range rows {
		got[r[0].S] = r[1].I
	}
	if got["red"] != 4 || got["blue"] != 6 || got["green"] != 5 {
		t.Errorf("string group by = %v", got)
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	src := mkSource(map[int][]int64{
		0: {1, 1, 2, 2, 1},
		1: {0, 0, 0, 1, 1},
		2: {10, 20, 30, 40, 50},
	})
	v, err := selectDense(src, expr.Conjunction{}, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := groupRows(v, []ColKey{{0, 0}, {0, 1}}, []AggSpec{{Kind: sql.AggSum, Col: ColKey{0, 2}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // (1,0) (2,0) (2,1) (1,1)
		t.Fatalf("groups = %d, want 4", len(rows))
	}
	// (1,0) → 10+20 = 30.
	if rows[0][0].I != 1 || rows[0][1].I != 0 || rows[0][2].I != 30 {
		t.Errorf("group (1,0) = %v", rows[0])
	}
}
