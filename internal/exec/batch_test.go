package exec

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"nodb/internal/expr"
	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/storage"
)

func mustDenseScan(t testing.TB, src DenseSource, tab int, cols []int, size int) *DenseScan {
	t.Helper()
	s, err := NewDenseScan(src, tab, cols, size)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func rowsEqual(t *testing.T, got, want [][]storage.Value) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("row %d arity = %d, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			g, w := got[i][j], want[i][j]
			// NaN-safe comparison via the rendered form.
			if g.Typ != w.Typ || g.String() != w.String() {
				t.Fatalf("row %d col %d = %v (%v), want %v (%v)", i, j, g.String(), g.Typ, w.String(), w.Typ)
			}
		}
	}
}

// drainRows pulls op to exhaustion and flattens its output-keyed batches
// into result rows of the given arity, copied out of each batch before the
// next pull. The rows of a batch share one backing array.
func drainRows(op Operator, arity int) ([][]storage.Value, error) {
	var out [][]storage.Value
	var ident []int32
	cols := make([]*storage.DenseColumn, arity)
	for {
		b, err := op.Next()
		if err != nil || b == nil {
			return out, err
		}
		for j := range cols {
			if cols[j] = b.Col(OutKey(j)); cols[j] == nil {
				return nil, fmt.Errorf("output column %d not in batch", j)
			}
		}
		flat := make([]storage.Value, b.Rows()*arity)
		for r, i := range liveRows(b, &ident) {
			row := flat[r*arity : (r+1)*arity : (r+1)*arity]
			for j, c := range cols {
				row[j] = c.Value(int(i))
			}
			out = append(out, row)
		}
	}
}

// groupRows runs GroupByOp over every row of v, laying each output row out
// as the key values, then the aggregate results.
func groupRows(v *View, keys []ColKey, specs []AggSpec) ([][]storage.Value, error) {
	return groupRowsBatched(v, keys, specs, 0)
}

func groupRowsBatched(v *View, keys []ColKey, specs []AggSpec, size int) ([][]storage.Value, error) {
	var slots []OutSlot
	for i := range keys {
		slots = append(slots, OutSlot{Idx: i})
	}
	for i := range specs {
		slots = append(slots, OutSlot{Agg: true, Idx: i})
	}
	return drainRows(NewGroupByOp(NewViewScan(v, size), keys, specs, slots, keys, size), len(slots))
}

// refAggregate is the row-at-a-time reference for one aggregate over the
// values of its column, one per input row (the rows themselves for
// count(*)): an empty sum is the int 0, avg of nothing is NaN, int sums
// stay int, and min and max keep the first of equal values.
func refAggregate(spec AggSpec, typ schema.Type, vals []storage.Value) storage.Value {
	switch spec.Kind {
	case sql.AggCount:
		return storage.IntValue(int64(len(vals)))
	case sql.AggSum, sql.AggAvg:
		var si int64
		var sf float64
		for _, v := range vals {
			si += v.I
			sf += v.AsFloat()
		}
		n := float64(len(vals))
		switch {
		case spec.Kind == sql.AggSum && len(vals) == 0:
			return storage.IntValue(0)
		case spec.Kind == sql.AggSum && typ == schema.Int64:
			return storage.IntValue(si)
		case spec.Kind == sql.AggSum:
			return storage.FloatValue(sf)
		case typ == schema.Int64:
			return storage.FloatValue(float64(si) / n)
		default:
			return storage.FloatValue(sf / n)
		}
	default:
		if len(vals) == 0 {
			return storage.Value{}
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := v.Compare(best)
			if (spec.Kind == sql.AggMin && c < 0) || (spec.Kind == sql.AggMax && c > 0) {
				best = v
			}
		}
		return best
	}
}

// refAggregates applies refAggregate for every spec to rows of v.
func refAggregates(v *View, rows []int, specs []AggSpec) []storage.Value {
	var out []storage.Value
	for _, s := range specs {
		typ := schema.Int64
		vals := make([]storage.Value, len(rows))
		if !s.Star {
			typ = v.Col(s.Col).Typ
			for r, i := range rows {
				vals[r] = v.Value(s.Col, i)
			}
		}
		out = append(out, refAggregate(s, typ, vals))
	}
	return out
}

// refGroupBy is the row-at-a-time reference for GroupByOp: groups keyed by
// the values' rendered form in first-appearance order, aggregated by
// refAggregate.
func refGroupBy(v *View, keys []ColKey, specs []AggSpec) [][]storage.Value {
	index := map[string]int{}
	var groups [][]int // row positions per group
	for i := 0; i < v.Len(); i++ {
		var kb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&kb, "%d:%s", len(v.Value(k, i).String()), v.Value(k, i).String())
		}
		g, ok := index[kb.String()]
		if !ok {
			g = len(groups)
			index[kb.String()] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	var out [][]storage.Value
	for _, rows := range groups {
		var row []storage.Value
		for _, k := range keys {
			row = append(row, v.Value(k, rows[0]))
		}
		out = append(out, append(row, refAggregates(v, rows, specs)...))
	}
	return out
}

// intRows renders the rows of int columns as result rows, one per row
// index in rows, one value per column in cols.
func intRows(src DenseSource, rows []int, cols []int) [][]storage.Value {
	out := make([][]storage.Value, len(rows))
	for r, i := range rows {
		for _, c := range cols {
			out[r] = append(out[r], src.Columns[c].Value(i))
		}
	}
	return out
}

// evalRows returns the rows of src that satisfy conj, evaluated one row at
// a time.
func evalRows(src DenseSource, conj expr.Conjunction) []int {
	var rows []int
	for i := 0; i < int(src.NumRows); i++ {
		if conj.EvalRow(func(col int) storage.Value { return src.Columns[col].Value(i) }) {
			rows = append(rows, i)
		}
	}
	return rows
}

func TestDenseScanWindows(t *testing.T) {
	src := mkSource(map[int][]int64{0: {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}})
	s := mustDenseScan(t, src, 0, []int{0}, 3)
	var total, batches int
	for {
		b, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		batches++
		c := b.Col(ColKey{0, 0})
		if c == nil || c.Len() != b.N {
			t.Fatalf("batch %d: column len %d, N %d", batches, c.Len(), b.N)
		}
		// Zero-copy: the window aliases the source column.
		if &c.Ints[0] != &src.Columns[0].Ints[total] {
			t.Fatal("window is a copy, want alias into the source column")
		}
		total += b.Rows()
	}
	if batches != 4 || total != 10 {
		t.Fatalf("batches=%d rows=%d, want 4 batches of 10 rows", batches, total)
	}
	st := s.Stats()
	if st.Batches != 4 || st.Rows != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := NewDenseScan(src, 0, []int{7}, 0); err == nil {
		t.Fatal("scan of a missing column should error at construction")
	}
}

// TestPipelineMatchesSelectDense differentially pins Scan→Filter→Project
// against a row-at-a-time evaluation of the conjunction on random data,
// across batch sizes that do and don't divide the row count.
func TestPipelineMatchesSelectDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 1000
	a0 := make([]int64, n)
	a1 := make([]int64, n)
	for i := range a0 {
		a0[i] = rng.Int63n(100)
		a1[i] = rng.Int63n(1000)
	}
	src := mkSource(map[int][]int64{0: a0, 1: a1})
	conj := expr.Conjunction{Preds: []expr.Pred{
		intPred(0, expr.Ge, 20), intPred(0, expr.Lt, 80), intPred(1, expr.Ne, 500),
	}}
	proj := []ColKey{{0, 1}, {0, 0}}
	want := intRows(src, evalRows(src, conj), []int{1, 0})

	for _, size := range []int{1, 7, 256, 1024, 5000} {
		scan := mustDenseScan(t, src, 0, []int{0, 1}, size)
		p := NewProjectOp(NewFilterOp(scan, 0, conj), proj)
		got, err := drainRows(p, len(proj))
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, got, want)
	}
}

func TestAggOpMatchesAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 777
	ints := make([]int64, n)
	for i := range ints {
		ints[i] = rng.Int63n(500) - 250
	}
	fc := storage.NewDense(schema.Float64, n)
	for i := 0; i < n; i++ {
		fc.Floats = append(fc.Floats, float64(rng.Int63n(1000))/8)
	}
	src := mkSource(map[int][]int64{0: ints})
	src.Columns[1] = fc
	all := NewView()
	all.AddCol(ColKey{0, 0}, src.Columns[0])
	all.AddCol(ColKey{0, 1}, fc)

	specs := []AggSpec{
		{Kind: sql.AggCount, Star: true},
		{Kind: sql.AggSum, Col: ColKey{0, 0}},
		{Kind: sql.AggSum, Col: ColKey{0, 1}},
		{Kind: sql.AggAvg, Col: ColKey{0, 0}},
		{Kind: sql.AggAvg, Col: ColKey{0, 1}},
		{Kind: sql.AggMin, Col: ColKey{0, 0}},
		{Kind: sql.AggMax, Col: ColKey{0, 1}},
		{Kind: sql.AggCount, Col: ColKey{0, 0}},
	}
	out := make([]int, len(specs))
	for i := range out {
		out[i] = i
	}

	for _, conj := range []expr.Conjunction{
		{},
		{Preds: []expr.Pred{intPred(0, expr.Gt, 0)}},
		{Preds: []expr.Pred{intPred(0, expr.Gt, 10_000)}}, // empty result
	} {
		want := refAggregates(all, evalRows(src, conj), specs)
		scan := mustDenseScan(t, src, 0, []int{0, 1}, 128)
		agg := NewAggOp(NewFilterOp(scan, 0, conj), specs, out)
		got, err := drainRows(agg, len(specs))
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, got, [][]storage.Value{want})
	}
}

// TestGroupByOpMatchesGroupBy holds the typed group-by to a row-at-a-time
// reference (refGroupBy) for every key shape — one int, float or string
// key, and two keys — with every aggregate over int, float and string
// columns, at batch sizes around and across the group count.
func TestGroupByOpMatchesGroupBy(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 600
	v := NewView()
	ik := storage.NewDense(schema.Int64, n)
	fk := storage.NewDense(schema.Float64, n)
	sk := storage.NewDense(schema.String, n)
	iv := storage.NewDense(schema.Int64, n)
	fv := storage.NewDense(schema.Float64, n)
	for i := 0; i < n; i++ {
		ik.Append(storage.IntValue(rng.Int63n(12) - 6))
		fk.Append(storage.FloatValue(float64(rng.Int63n(7)) / 4))
		sk.Append(storage.StringValue([]string{"", "a", "ab", "b", "a\x00"}[rng.Intn(5)]))
		iv.Append(storage.IntValue(rng.Int63n(100) - 50))
		fv.Append(storage.FloatValue(float64(rng.Int63n(1000)) / 8))
	}
	for c, col := range []*storage.DenseColumn{ik, fk, sk, iv, fv} {
		v.AddCol(ColKey{0, c}, col)
	}
	var specs []AggSpec
	for _, kind := range []sql.AggKind{sql.AggSum, sql.AggAvg, sql.AggMin, sql.AggMax, sql.AggCount} {
		for c := 2; c < 5; c++ {
			if c == 2 && (kind == sql.AggSum || kind == sql.AggAvg) {
				continue // the planner rejects sum/avg over strings
			}
			specs = append(specs, AggSpec{Kind: kind, Col: ColKey{0, c}})
		}
	}
	specs = append(specs, AggSpec{Kind: sql.AggCount, Star: true})

	for _, keys := range [][]ColKey{{{0, 0}}, {{0, 1}}, {{0, 2}}, {{0, 0}, {0, 2}}, {{0, 1}, {0, 0}}} {
		want := refGroupBy(v, keys, specs)
		for _, size := range []int{1, 5, 64, 1024} {
			got, err := groupRowsBatched(v, keys, specs, size)
			if err != nil {
				t.Fatal(err)
			}
			rowsEqual(t, got, want)
		}
	}

	// Select list sum(c3), c0, count(*): slots reorder keys and aggregates.
	slots := []OutSlot{{Agg: true, Idx: 0}, {Agg: false, Idx: 0}, {Agg: true, Idx: 1}}
	gspecs := []AggSpec{{Kind: sql.AggSum, Col: ColKey{0, 3}}, {Kind: sql.AggCount, Star: true}}
	var want [][]storage.Value
	for _, r := range refGroupBy(v, []ColKey{{0, 0}}, gspecs) {
		want = append(want, []storage.Value{r[1], r[0], r[2]})
	}
	g := NewGroupByOp(NewViewScan(v, 64), []ColKey{{0, 0}}, gspecs, slots, []ColKey{{0, 0}}, 5)
	got, err := drainRows(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, got, want)
}

func TestGroupByOpEmptyInput(t *testing.T) {
	src := mkSource(map[int][]int64{0: {1, 2, 3}})
	scan := mustDenseScan(t, src, 0, []int{0}, 2)
	f := NewFilterOp(scan, 0, expr.Conjunction{Preds: []expr.Pred{intPred(0, expr.Gt, 99)}})
	g := NewGroupByOp(f, []ColKey{{0, 0}}, []AggSpec{{Kind: sql.AggCount, Star: true}},
		[]OutSlot{{Agg: false, Idx: 0}, {Agg: true, Idx: 0}}, []ColKey{{0, 0}}, 0)
	rows, err := drainRows(g, 2)
	if err != nil || len(rows) != 0 {
		t.Fatalf("empty group-by = %d rows (%v), want 0", len(rows), err)
	}
}

// TestSortOverEmptyInput: a sort or top-k whose child sends no batch — a
// filter that keeps no row, an empty table, a group-by with no groups —
// ends its stream without an error.
func TestSortOverEmptyInput(t *testing.T) {
	proj := []ColKey{{0, 0}}
	inputs := map[string]func() Operator{
		"filter": func() Operator {
			scan := mustDenseScan(t, mkSource(map[int][]int64{0: {1, 2, 3}}), 0, []int{0}, 2)
			f := NewFilterOp(scan, 0, expr.Conjunction{Preds: []expr.Pred{intPred(0, expr.Gt, 99)}})
			return NewProjectOp(f, proj)
		},
		"table": func() Operator {
			return NewProjectOp(mustDenseScan(t, mkSource(map[int][]int64{0: {}}), 0, []int{0}, 2), proj)
		},
		"groupby": func() Operator {
			scan := mustDenseScan(t, mkSource(map[int][]int64{0: {1, 2, 3}}), 0, []int{0}, 2)
			f := NewFilterOp(scan, 0, expr.Conjunction{Preds: []expr.Pred{intPred(0, expr.Gt, 99)}})
			return NewGroupByOp(f, []ColKey{{0, 0}}, []AggSpec{{Kind: sql.AggCount, Star: true}},
				[]OutSlot{{Agg: false, Idx: 0}, {Agg: true, Idx: 0}}, []ColKey{{0, 0}}, 0)
		},
	}
	keys := []SortKey{{Index: 0}}
	for name, input := range inputs {
		arity := 1
		if name == "groupby" {
			arity = 2
		}
		ops := map[string]Operator{
			"sort": NewSortOp(input(), keys, arity, 4),
			"topk": NewTopKOp(input(), keys, arity, 3, 4),
		}
		for opName, op := range ops {
			if rows, err := drainRows(op, arity); err != nil || len(rows) != 0 {
				t.Fatalf("%s over an empty %s = %d rows (%v), want none", opName, name, len(rows), err)
			}
		}
	}
}

// TestHashJoinOpMatchesHashJoin holds the streaming join to a nested
// loop over the same rows: probe rows in order, each with its build
// matches in build order, at batch sizes around and across the inputs.
func TestHashJoinOpMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	mk := func(n int, mod int64) DenseSource {
		ks := make([]int64, n)
		pay := make([]int64, n)
		for i := range ks {
			ks[i] = rng.Int63n(mod)
			pay[i] = int64(i) * 7
		}
		return mkSource(map[int][]int64{0: ks, 1: pay})
	}
	for _, sizes := range [][2]int{{300, 80}, {80, 300}, {100, 100}} {
		lsrc, rsrc := mk(sizes[0], 50), mk(sizes[1], 50)
		var want [][]storage.Value
		for i := 0; i < sizes[0]; i++ {
			for k := 0; k < sizes[1]; k++ {
				if lsrc.Columns[0].Ints[i] == rsrc.Columns[0].Ints[k] {
					want = append(want, []storage.Value{lsrc.Columns[1].Value(i), rsrc.Columns[1].Value(k), lsrc.Columns[0].Value(i)})
				}
			}
		}
		proj := []ColKey{{0, 1}, {1, 1}, {0, 0}}
		for _, size := range []int{1, 97, 1024} {
			ls := mustDenseScan(t, lsrc, 0, []int{0, 1}, 97)
			rs := mustDenseScan(t, rsrc, 1, []int{0, 1}, 97)
			j := NewHashJoinOp(ls, rs, ColKey{0, 0}, ColKey{1, 0}, size)
			got, err := drainRows(NewProjectOp(j, proj), len(proj))
			if err != nil {
				t.Fatal(err)
			}
			rowsEqual(t, got, want)
		}
	}
}

func TestHashJoinOpEmptySide(t *testing.T) {
	lsrc := mkSource(map[int][]int64{0: {1, 2, 3}})
	rsrc := mkSource(map[int][]int64{0: {1, 2}})
	ls := mustDenseScan(t, lsrc, 0, []int{0}, 2)
	rf := NewFilterOp(mustDenseScan(t, rsrc, 1, []int{0}, 2), 1,
		expr.Conjunction{Preds: []expr.Pred{intPred(0, expr.Gt, 99)}})
	j := NewHashJoinOp(ls, rf, ColKey{0, 0}, ColKey{1, 0}, 0)
	b, err := j.Next()
	if err != nil || b != nil {
		t.Fatalf("join with empty build side = (%v, %v), want end of stream", b, err)
	}
}

func TestSortOpAndLimitOp(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 500
	a0 := make([]int64, n)
	a1 := make([]int64, n)
	for i := range a0 {
		a0[i] = rng.Int63n(40)
		a1[i] = int64(i)
	}
	src := mkSource(map[int][]int64{0: a0, 1: a1})
	proj := []ColKey{{0, 0}, {0, 1}}
	sortKeys := []SortKey{{Index: 0, Desc: true}}

	every := make([]int, n)
	for i := range every {
		every[i] = i
	}
	want := intRows(src, every, []int{0, 1})
	SortRows(want, sortKeys)
	want = LimitRows(want, 17)

	scan := mustDenseScan(t, src, 0, []int{0, 1}, 33)
	top := NewLimitOp(NewSortOp(NewProjectOp(scan, proj), sortKeys, 2, 9), 17)
	got, err := drainRows(top, 2)
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, got, want)

	// The bounded heap keeps exactly the stable sort's first k rows, ties
	// (40 key values over 500 rows) in arrival order.
	all := intRows(src, every, []int{0, 1})
	SortRows(all, sortKeys)
	for _, k := range []int{0, 1, 17, 499, 500, 1000} {
		heap := NewTopKOp(NewProjectOp(mustDenseScan(t, src, 0, []int{0, 1}, 33), proj), sortKeys, 2, k, 9)
		got, err := drainRows(heap, 2)
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, got, LimitRows(all, k))
	}
}

// pullCounter wraps an operator, counting pulls and Close calls, to prove
// LimitOp stops its upstream early.
type pullCounter struct {
	opBase
	child  Operator
	pulls  int
	closed int
}

func (p *pullCounter) Name() string         { return "pullCounter" }
func (p *pullCounter) Children() []Operator { return []Operator{p.child} }
func (p *pullCounter) Close()               { p.closed++; p.child.Close() }
func (p *pullCounter) Next() (*Batch, error) {
	p.pulls++
	return p.child.Next()
}

func TestLimitStopsPullingAndClosesChild(t *testing.T) {
	vals := make([]int64, 100)
	src := mkSource(map[int][]int64{0: vals})
	pc := &pullCounter{child: mustDenseScan(t, src, 0, []int{0}, 10)}
	lim := NewLimitOp(pc, 25)
	rows := 0
	for {
		b, err := lim.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		rows += b.Rows()
	}
	if rows != 25 {
		t.Fatalf("limit emitted %d rows, want 25", rows)
	}
	if pc.pulls != 3 {
		t.Fatalf("limit pulled %d batches, want 3 (of 10 available)", pc.pulls)
	}
	if pc.closed == 0 {
		t.Fatal("limit did not close its child after satisfying the quota")
	}
}

func TestLimitZero(t *testing.T) {
	src := mkSource(map[int][]int64{0: {1, 2, 3}})
	lim := NewLimitOp(mustDenseScan(t, src, 0, []int{0}, 2), 0)
	if b, err := lim.Next(); err != nil || b != nil {
		t.Fatalf("limit 0 emitted %v (%v)", b, err)
	}
}

func TestExplainTreeShape(t *testing.T) {
	src := mkSource(map[int][]int64{0: {1, 2, 3, 4}})
	scan := mustDenseScan(t, src, 0, []int{0}, 2)
	f := NewFilterOp(scan, 0, expr.Conjunction{Preds: []expr.Pred{intPred(0, expr.Gt, 1)}})
	agg := NewAggOp(f, []AggSpec{{Kind: sql.AggCount, Star: true}}, []int{0})
	if _, err := drainRows(agg, 1); err != nil {
		t.Fatal(err)
	}
	tree := ExplainTree(agg)
	lines := strings.Split(strings.TrimRight(tree, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("tree = %q", tree)
	}
	if !strings.HasPrefix(lines[0], "Aggregate") || !strings.Contains(lines[0], "rows=1") {
		t.Errorf("root line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  Filter") || !strings.Contains(lines[1], "rows=3") {
		t.Errorf("filter line = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "    DenseScan") || !strings.Contains(lines[2], "rows=4") {
		t.Errorf("scan line = %q", lines[2])
	}
}

func TestDrainRowsAllocs(t *testing.T) {
	const n = 4096
	vals := make([]int64, n)
	src := mkSource(map[int][]int64{0: vals, 1: vals})
	proj := []ColKey{{0, 0}, {0, 1}}
	allocs := testing.AllocsPerRun(10, func() {
		scan, err := NewDenseScan(src, 0, []int{0, 1}, 1024)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := drainRows(NewProjectOp(scan, proj), 2)
		if err != nil || len(rows) != n {
			t.Fatalf("drain: %d rows, %v", len(rows), err)
		}
	})
	if perRow := allocs / n; perRow >= 1 {
		t.Fatalf("drain allocates %.2f per row (%.0f total), want < 1", perRow, allocs)
	}
}

// BenchmarkBatchPipeline measures the vectorized filter+aggregate chain.
func BenchmarkBatchPipeline(b *testing.B) {
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
	specs := []AggSpec{{Kind: sql.AggSum, Col: ColKey{0, 0}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan, err := NewDenseScan(src, 0, []int{0, 1}, DefaultBatchSize)
		if err != nil {
			b.Fatal(err)
		}
		agg := NewAggOp(NewFilterOp(scan, 0, conj), specs, []int{0})
		if _, err := drainRows(agg, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExplainTreeText pins the rendering of a multi-node tree with two
// children under one node, byte for byte.
func TestExplainTreeText(t *testing.T) {
	left := mkSource(map[int][]int64{0: {1, 2, 3, 4, 5}, 1: {10, 20, 30, 40, 50}})
	right := mkSource(map[int][]int64{0: {2, 4, 4, 9}})
	join := NewHashJoinOp(
		NewFilterOp(mustDenseScan(t, left, 0, []int{0, 1}, 2), 0, expr.Conjunction{Preds: []expr.Pred{intPred(0, expr.Gt, 1)}}),
		mustDenseScan(t, right, 1, []int{0}, 3), ColKey{0, 0}, ColKey{1, 0}, 2)
	proj := NewProjectOp(join, []ColKey{{0, 1}, {1, 0}})
	root := NewLimitOp(NewTopKOp(proj, []SortKey{{Index: 0, Desc: true}}, 2, 2, 4), 1)
	if _, err := drainRows(root, 2); err != nil {
		t.Fatal(err)
	}
	const want = `Limit(0)  (batches=1 rows=1)
  TopK(2 [{0 true}])  (batches=1 rows=2)
    Project([t0.c1 t1.c0])  (batches=2 rows=3)
      HashJoin(t0.c0=t1.c0)  (batches=2 rows=3)
        Filter(t0 1 preds)  (batches=3 rows=4)
          DenseScan(t0 cols=[0 1])  (batches=3 rows=5)
        DenseScan(t1 cols=[0])  (batches=2 rows=4)
`
	if got := ExplainTree(root); got != want {
		t.Fatalf("ExplainTree =\n%s\nwant\n%s", got, want)
	}
}

// TestTopKEqualsStableSortCut: the heap keeps exactly a stable sort's
// first k rows, ties in arrival order, on keys with many ties, ASC and
// DESC, over int keys stored at every width and over float and string
// keys. Column 6 is the arrival number, so a tie broken the wrong way
// shows; the filter makes every other batch a selected one.
func TestTopKEqualsStableSortCut(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const n = 600
	src := DenseSource{NumRows: n, Columns: map[int]*storage.DenseColumn{}}
	for c, span := range []int64{100, 30_000, 1 << 30, 1 << 40} {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = []int64{-span, -1, 0, 1, span}[rng.Intn(5)]
		}
		src.Columns[c] = (&storage.DenseColumn{Typ: schema.Int64, Ints: vals}).Narrow()
		if w := src.Columns[c].Width(); w != 1<<c {
			t.Fatalf("column %d stored at width %d", c, w)
		}
	}
	floats, strs, seq := storage.NewDense(schema.Float64, n), storage.NewDense(schema.String, n), storage.NewDense(schema.Int64, n)
	for i := range n {
		floats.Append(storage.FloatValue([]float64{-1.5, 0, 2.25}[rng.Intn(3)]))
		strs.Append(storage.StringValue([]string{"", "a", "b"}[rng.Intn(3)]))
		seq.Append(storage.IntValue(int64(i)))
	}
	src.Columns[4], src.Columns[5], src.Columns[6] = floats, strs, seq
	cols := []int{0, 1, 2, 3, 4, 5, 6}
	proj := make([]ColKey, len(cols))
	for i, c := range cols {
		proj[i] = ColKey{0, c}
	}
	input := func() Operator {
		f := NewFilterOp(mustDenseScan(t, src, 0, cols, 16), 0, expr.Conjunction{Preds: []expr.Pred{intPred(6, expr.Ne, 40)}})
		return NewProjectOp(f, proj)
	}
	all, err := drainRows(input(), len(cols))
	if err != nil {
		t.Fatal(err)
	}
	var orders [][]SortKey
	for c := range 6 {
		orders = append(orders, []SortKey{{Index: c}}, []SortKey{{Index: c, Desc: true}})
	}
	orders = append(orders, []SortKey{{Index: 5}, {Index: 0, Desc: true}}, []SortKey{{Index: 4, Desc: true}, {Index: 3}})
	for _, keys := range orders {
		want := append([][]storage.Value(nil), all...)
		SortRows(want, keys)
		for _, k := range []int{1, 10, 97, n} {
			got, err := drainRows(NewTopKOp(input(), keys, len(cols), k, 8), len(cols))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != min(k, len(want)) {
				t.Fatalf("keys %v, k=%d: %d rows", keys, k, len(got))
			}
			rowsEqual(t, got, LimitRows(want, k))
		}
	}
}
