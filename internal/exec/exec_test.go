package exec

import (
	"math"
	"math/rand"
	"testing"

	"nodb/internal/cracking"
	"nodb/internal/expr"
	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/storage"
)

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

func TestSelectDense(t *testing.T) {
	src := mkSource(map[int][]int64{
		0: {5, 15, 25, 35, 45},
		1: {1, 2, 3, 4, 5},
	})
	conj := expr.Conjunction{Preds: []expr.Pred{
		intPred(0, expr.Gt, 10),
		intPred(0, expr.Lt, 40),
	}}
	v, err := SelectDense(src, conj, []int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 3 {
		t.Fatalf("Len = %d, want 3", v.Len())
	}
	wantRows := []int64{1, 2, 3}
	for i, r := range wantRows {
		if v.Rows[i] != r {
			t.Errorf("row %d = %d, want %d", i, v.Rows[i], r)
		}
	}
	c1 := v.Col(ColKey{0, 1})
	if c1.Ints[0] != 2 || c1.Ints[2] != 4 {
		t.Errorf("col 1 values = %v", c1.Ints)
	}
}

func TestSelectDenseNoPredicates(t *testing.T) {
	src := mkSource(map[int][]int64{0: {1, 2, 3}})
	v, err := SelectDense(src, expr.Conjunction{}, []int{0}, 0)
	if err != nil || v.Len() != 3 {
		t.Fatalf("full select: %v len=%d", err, v.Len())
	}
}

func TestSelectDenseMissingColumn(t *testing.T) {
	src := mkSource(map[int][]int64{0: {1}})
	if _, err := SelectDense(src, expr.Conjunction{Preds: []expr.Pred{intPred(5, expr.Gt, 0)}}, []int{0}, 0); err == nil {
		t.Error("missing predicate column should error")
	}
	if _, err := SelectDense(src, expr.Conjunction{}, []int{9}, 0); err == nil {
		t.Error("missing needed column should error")
	}
}

func TestSelectDenseMixedTypesSlowPath(t *testing.T) {
	src := DenseSource{NumRows: 3, Columns: map[int]*storage.DenseColumn{}}
	fc := storage.NewDense(schema.Float64, 3)
	fc.Floats = append(fc.Floats, 1.5, 2.5, 3.5)
	src.Columns[0] = fc
	conj := expr.Conjunction{Preds: []expr.Pred{{Col: 0, Op: expr.Gt, Val: storage.FloatValue(2.0)}}}
	v, err := SelectDense(src, conj, []int{0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 2 {
		t.Errorf("float select Len = %d, want 2", v.Len())
	}
}

func TestAggregate(t *testing.T) {
	src := mkSource(map[int][]int64{0: {1, 2, 3, 4}, 1: {10, 20, 30, 40}})
	v, _ := SelectDense(src, expr.Conjunction{}, []int{0, 1}, 0)
	specs := []AggSpec{
		{Kind: sql.AggSum, Col: ColKey{0, 0}},
		{Kind: sql.AggMin, Col: ColKey{0, 1}},
		{Kind: sql.AggMax, Col: ColKey{0, 1}},
		{Kind: sql.AggAvg, Col: ColKey{0, 0}},
		{Kind: sql.AggCount, Star: true},
	}
	got, err := Aggregate(v, specs)
	if err != nil {
		t.Fatal(err)
	}
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
	v, _ := SelectDense(src, expr.Conjunction{Preds: []expr.Pred{intPred(0, expr.Gt, 100)}}, []int{0}, 0)
	got, err := Aggregate(v, []AggSpec{
		{Kind: sql.AggSum, Col: ColKey{0, 0}},
		{Kind: sql.AggCount, Star: true},
		{Kind: sql.AggAvg, Col: ColKey{0, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].I != 0 || got[1].I != 0 {
		t.Errorf("empty aggregates = %v", got)
	}
	if !math.IsNaN(got[2].F) {
		t.Errorf("avg over empty should be NaN, got %v", got[2])
	}
}

func TestAggregateFloatColumn(t *testing.T) {
	src := DenseSource{NumRows: 2, Columns: map[int]*storage.DenseColumn{}}
	fc := storage.NewDense(schema.Float64, 2)
	fc.Floats = append(fc.Floats, 1.5, 2.5)
	src.Columns[0] = fc
	v, _ := SelectDense(src, expr.Conjunction{}, []int{0}, 0)
	got, err := Aggregate(v, []AggSpec{{Kind: sql.AggSum, Col: ColKey{0, 0}}})
	if err != nil || got[0].F != 4.0 {
		t.Errorf("float sum = %v, %v", got, err)
	}
}

func TestGroupBy(t *testing.T) {
	src := mkSource(map[int][]int64{
		0: {1, 2, 1, 2, 1}, // key
		1: {10, 20, 30, 40, 50},
	})
	v, _ := SelectDense(src, expr.Conjunction{}, []int{0, 1}, 0)
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

func TestHashJoin(t *testing.T) {
	left := mkView(0, map[int][]int64{0: {1, 2, 3}, 1: {10, 20, 30}})
	right := mkView(1, map[int][]int64{0: {2, 3, 4}, 1: {200, 300, 400}})
	out, err := HashJoin(left, right, ColKey{0, 0}, ColKey{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("join Len = %d, want 2", out.Len())
	}
	// Verify alignment: rows (2,20,2,200) and (3,30,3,300) in some order.
	seen := map[int64]int64{}
	for i := 0; i < out.Len(); i++ {
		k := out.Value(ColKey{0, 0}, i).I
		seen[k] = out.Value(ColKey{1, 1}, i).I
		if out.Value(ColKey{0, 1}, i).I != k*10 {
			t.Errorf("left payload misaligned at %d", i)
		}
	}
	if seen[2] != 200 || seen[3] != 300 {
		t.Errorf("join result = %v", seen)
	}
}

func TestHashJoinDuplicates(t *testing.T) {
	left := mkView(0, map[int][]int64{0: {1, 1, 2}})
	right := mkView(1, map[int][]int64{0: {1, 1}})
	out, err := HashJoin(left, right, ColKey{0, 0}, ColKey{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 { // 2x2 cross product of the 1-runs
		t.Errorf("dup join Len = %d, want 4", out.Len())
	}
}

func TestMergeJoinMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 500
	lvals := make([]int64, n)
	rvals := make([]int64, n)
	for i := range lvals {
		lvals[i] = rng.Int63n(200)
		rvals[i] = rng.Int63n(200)
	}
	left := mkView(0, map[int][]int64{0: lvals})
	right := mkView(1, map[int][]int64{0: rvals})

	h, err := HashJoin(left, right, ColKey{0, 0}, ColKey{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	m, err := MergeJoin(left, right, ColKey{0, 0}, ColKey{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != m.Len() {
		t.Fatalf("hash=%d merge=%d", h.Len(), m.Len())
	}
	// Same multiset of key values.
	count := func(v *View) map[int64]int {
		c := map[int64]int{}
		col := v.Col(ColKey{0, 0})
		for _, x := range col.Ints {
			c[x]++
		}
		return c
	}
	hc, mc := count(h), count(m)
	for k, v := range hc {
		if mc[k] != v {
			t.Fatalf("key %d: hash=%d merge=%d", k, v, mc[k])
		}
	}
}

func TestJoinErrors(t *testing.T) {
	left := mkView(0, map[int][]int64{0: {1}})
	right := mkView(1, map[int][]int64{0: {1}})
	if _, err := HashJoin(left, right, ColKey{0, 9}, ColKey{1, 0}); err == nil {
		t.Error("bad left key should error")
	}
	if _, err := MergeJoin(left, right, ColKey{0, 0}, ColKey{1, 9}); err == nil {
		t.Error("bad right key should error")
	}
}

func TestSelectCracked(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 2000
	a1 := make([]int64, n)
	a2 := make([]int64, n)
	for i := range a1 {
		a1[i] = rng.Int63n(1000)
		a2[i] = rng.Int63n(1000)
	}
	src := mkSource(map[int][]int64{0: a1, 1: a2})
	crackers := map[int]*cracking.Cracker{0: cracking.New(a1)}
	conj := expr.Conjunction{Preds: []expr.Pred{
		intPred(0, expr.Ge, 100), intPred(0, expr.Lt, 300),
		intPred(1, expr.Ge, 200), intPred(1, expr.Lt, 800),
	}}
	want, err := SelectDense(src, conj, []int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SelectCracked(src, crackers, conj, []int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("cracked=%d dense=%d", got.Len(), want.Len())
	}
	for i := range got.Rows {
		if got.Rows[i] != want.Rows[i] {
			t.Fatalf("row %d: cracked=%d dense=%d", i, got.Rows[i], want.Rows[i])
		}
	}
	// Repeating the query must give identical results (cracker mutated).
	got2, err := SelectCracked(src, crackers, conj, []int{0, 1}, 0)
	if err != nil || got2.Len() != want.Len() {
		t.Fatalf("repeat cracked select: %v len=%d", err, got2.Len())
	}
}

func TestSelectCrackedNoCracker(t *testing.T) {
	src := mkSource(map[int][]int64{0: {1, 2}})
	conj := expr.Conjunction{Preds: []expr.Pred{intPred(0, expr.Gt, 0)}}
	if _, err := SelectCracked(src, nil, conj, []int{0}, 0); err == nil {
		t.Error("no cracker should error")
	}
	if _, err := SelectCracked(src, nil, expr.Conjunction{}, []int{0}, 0); err == nil {
		t.Error("empty conjunction should error")
	}
}

func TestViewMemSize(t *testing.T) {
	v := mkView(0, map[int][]int64{0: {1, 2, 3}})
	if v.MemSize() <= 0 {
		t.Error("MemSize should be positive")
	}
}

func BenchmarkSelectDense1M(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1_000_000
	a1 := make([]int64, n)
	a2 := make([]int64, n)
	for i := range a1 {
		a1[i] = rng.Int63n(int64(n))
		a2[i] = rng.Int63n(int64(n))
	}
	src := mkSource(map[int][]int64{0: a1, 1: a2})
	conj := expr.Conjunction{Preds: []expr.Pred{
		intPred(0, expr.Gt, 100_000), intPred(0, expr.Lt, 200_000),
		intPred(1, expr.Gt, 0), intPred(1, expr.Lt, 900_000),
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := SelectDense(src, conj, []int{0, 1}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Aggregate(v, []AggSpec{{Kind: sql.AggSum, Col: ColKey{0, 0}}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoin100k(b *testing.B) {
	n := 100_000
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i)
	}
	left := mkView(0, map[int][]int64{0: keys})
	right := mkView(1, map[int][]int64{0: keys})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HashJoin(left, right, ColKey{0, 0}, ColKey{1, 0}); err != nil {
			b.Fatal(err)
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
	v.Rows = []int64{0, 1, 2, 3, 4}

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
	v, _ := SelectDense(src, expr.Conjunction{}, []int{0, 1, 2}, 0)
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

func TestHashJoinStringKeys(t *testing.T) {
	mk := func(tab int, keys []string) *View {
		v := NewView()
		c := storage.NewDense(schema.String, 0)
		for _, k := range keys {
			c.Append(storage.StringValue(k))
		}
		v.AddCol(ColKey{tab, 0}, c)
		v.Rows = make([]int64, len(keys))
		return v
	}
	l := mk(0, []string{"a", "b", "c"})
	r := mk(1, []string{"b", "c", "d"})
	out, err := HashJoin(l, r, ColKey{0, 0}, ColKey{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("string join Len = %d, want 2", out.Len())
	}
}
