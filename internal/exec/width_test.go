package exec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"nodb/internal/expr"
	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/storage"
)

// widthTwins returns two sources over the same int columns: narrow stores
// each at the width rule's width, wide at 8 bytes.
func widthTwins(cols map[int][]int64) (narrow, wide DenseSource) {
	narrow = DenseSource{Columns: map[int]*storage.DenseColumn{}}
	wide = DenseSource{Columns: map[int]*storage.DenseColumn{}}
	for c, vals := range cols {
		w := &storage.DenseColumn{Typ: schema.Int64, Ints: vals}
		wide.Columns[c], narrow.Columns[c] = w, w.Narrow()
		wide.NumRows, narrow.NumRows = int64(len(vals)), int64(len(vals))
	}
	return narrow, wide
}

// batchesOp emits prebuilt batches, one per Next.
type batchesOp struct {
	opBase
	bs []*Batch
}

func (o *batchesOp) Name() string         { return "batches" }
func (o *batchesOp) Children() []Operator { return nil }
func (o *batchesOp) Close()               {}
func (o *batchesOp) Next() (*Batch, error) {
	if len(o.bs) == 0 {
		return nil, nil
	}
	b := o.bs[0]
	o.bs = o.bs[1:]
	return b, nil
}

var groupSpecs = []AggSpec{
	{Kind: sql.AggCount, Star: true},
	{Kind: sql.AggSum, Col: ColKey{0, 1}},
	{Kind: sql.AggMin, Col: ColKey{0, 1}},
	{Kind: sql.AggMax, Col: ColKey{0, 1}},
	{Kind: sql.AggAvg, Col: ColKey{0, 1}},
}

// groupBy runs SELECT c0, count(*), sum(c1), min(c1), max(c1), avg(c1)
// GROUP BY c0 over child, ORDER BY c0 when sorted.
func groupBy(t *testing.T, child Operator, size int, sorted bool) [][]storage.Value {
	t.Helper()
	slots := []OutSlot{{Idx: 0}}
	for i := range groupSpecs {
		slots = append(slots, OutSlot{Agg: true, Idx: i})
	}
	var op Operator = NewGroupByOp(child, []ColKey{{0, 0}}, groupSpecs, slots, []ColKey{{0, 0}}, size)
	if sorted {
		op = NewSortOp(op, []SortKey{{Index: 0}}, len(slots), size)
	}
	rows, err := drainRows(op, len(slots))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestGroupByInt8FlatTable: a one-byte key groups through the flat table
// and answers exactly what the map path answers for the same values at 8
// bytes — negative keys included, in first-appearance order and sorted.
func TestGroupByInt8FlatTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 5000
	key, val := make([]int64, n), make([]int64, n)
	for i := range key {
		key[i], val[i] = rng.Int63n(256)-128, rng.Int63n(1_000_000)-500_000
	}
	narrow, wide := widthTwins(map[int][]int64{0: key, 1: val})
	if w := narrow.Columns[0].Width(); w != 1 {
		t.Fatalf("key width = %d, want 1", w)
	}
	view := NewView()
	view.AddCol(ColKey{0, 0}, wide.Columns[0])
	view.AddCol(ColKey{0, 1}, wide.Columns[1])
	want := refGroupBy(view, []ColKey{{0, 0}}, groupSpecs)
	for _, size := range []int{1, 7, 1024} {
		for _, sorted := range []bool{false, true} {
			got := groupBy(t, mustDenseScan(t, narrow, 0, []int{0, 1}, size), size, sorted)
			ref := groupBy(t, mustDenseScan(t, wide, 0, []int{0, 1}, size), size, sorted)
			rowsEqual(t, got, ref)
			if !sorted {
				rowsEqual(t, got, want)
			} else if len(got) != 256 || got[0][0].I != -128 || got[255][0].I != 127 {
				t.Fatalf("sorted groups %d, first %v, last %v", len(got), got[0][0], got[len(got)-1][0])
			}
		}
	}
}

// TestGroupByKeyWidthChangesMidStream: batches whose key width changes
// (one byte, then two, then one again) still form one group per value.
func TestGroupByKeyWidthChangesMidStream(t *testing.T) {
	parts := [][]int64{{-3, 5, -3, 127}, {300, 5, -3, -300}, {5, 127, -128, 300 - 300}}
	var all, vals []int64
	var bs []*Batch
	for p, keys := range parts {
		k := (&storage.DenseColumn{Typ: schema.Int64, Ints: keys}).Narrow()
		v := make([]int64, len(keys))
		for i := range v {
			v[i] = int64(10*p + i)
		}
		bs = append(bs, &Batch{N: len(keys), Cols: map[ColKey]*storage.DenseColumn{
			{0, 0}: k, {0, 1}: {Typ: schema.Int64, Ints: v},
		}})
		all, vals = append(all, keys...), append(vals, v...)
	}
	if bs[0].Cols[ColKey{0, 0}].Width() != 1 || bs[1].Cols[ColKey{0, 0}].Width() != 2 {
		t.Fatal("batches do not change key width")
	}
	view := NewView()
	view.AddCol(ColKey{0, 0}, &storage.DenseColumn{Typ: schema.Int64, Ints: all})
	view.AddCol(ColKey{0, 1}, &storage.DenseColumn{Typ: schema.Int64, Ints: vals})
	rowsEqual(t, groupBy(t, &batchesOp{bs: bs}, 4, false), refGroupBy(view, []ColKey{{0, 0}}, groupSpecs))
}

// TestNarrowColumnsThroughOperators: every operator that reads an int
// vector answers the same over a column at each width as over its int64
// twin, at the width's edges.
func TestNarrowColumnsThroughOperators(t *testing.T) {
	edges := [][]int64{
		{math.MinInt8, -1, 0, 1, math.MaxInt8},
		{math.MinInt16, math.MinInt8 - 1, math.MaxInt8 + 1, math.MaxInt16},
		{math.MinInt32, math.MinInt16 - 1, math.MaxInt16 + 1, math.MaxInt32},
		{math.MinInt64, math.MinInt32 - 1, math.MaxInt32 + 1, math.MaxInt64},
	}
	rng := rand.New(rand.NewSource(9))
	for wi, edge := range edges {
		const n = 300
		key, val := make([]int64, n), make([]int64, n)
		for i := range key {
			key[i] = edge[rng.Intn(len(edge))]
			val[i] = edge[rng.Intn(len(edge))] / 4
		}
		narrow, wide := widthTwins(map[int][]int64{0: key, 1: val})
		if w := narrow.Columns[0].Width(); w != 1<<wi {
			t.Fatalf("width = %d, want %d", w, 1<<wi)
		}
		for _, size := range []int{3, 1024} {
			for _, sorted := range []bool{false, true} {
				rowsEqual(t, groupBy(t, mustDenseScan(t, narrow, 0, []int{0, 1}, size), size, sorted),
					groupBy(t, mustDenseScan(t, wide, 0, []int{0, 1}, size), size, sorted))
			}
			plans := map[string]func(DenseSource) Operator{
				"sort": func(src DenseSource) Operator {
					return NewSortOp(NewProjectOp(mustDenseScan(t, src, 0, []int{0, 1}, size), []ColKey{{0, 0}, {0, 1}}), []SortKey{{Index: 0, Desc: true}, {Index: 1}}, 2, size)
				},
				"topk": func(src DenseSource) Operator {
					return NewTopKOp(NewProjectOp(mustDenseScan(t, src, 0, []int{0, 1}, size), []ColKey{{0, 1}, {0, 0}}), []SortKey{{Index: 0}}, 2, 9, size)
				},
				"agg": func(src DenseSource) Operator {
					return NewAggOp(mustDenseScan(t, src, 0, []int{0, 1}, size), groupSpecs[1:], []int{0, 1, 2, 3})
				},
				"join": func(src DenseSource) Operator {
					build := mustDenseScan(t, src, 1, []int{0}, size)
					return NewProjectOp(NewHashJoinOp(mustDenseScan(t, src, 0, []int{0, 1}, size), build, ColKey{0, 0}, ColKey{1, 0}, size), []ColKey{{0, 1}, {1, 0}})
				},
			}
			for name, plan := range plans {
				arity := 2
				if name == "agg" {
					arity = 4
				}
				got, err := drainRows(plan(narrow), arity)
				if err != nil {
					t.Fatal(err)
				}
				want, err := drainRows(plan(wide), arity)
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 {
					t.Fatalf("%s: no rows", name)
				}
				rowsEqual(t, got, want)
			}
		}
	}
}

// FuzzNarrowKernels: int64 values, narrowed by the width rule, go through
// every filter op (folded ranges, `<>`, literals past the width) and
// sum/min/max/count; the narrow column must answer what its int64 twin
// answers. Each 8 bytes of data is one value, shifted right by shift so
// every width occurs.
func FuzzNarrowKernels(f *testing.F) {
	seed := []byte{1, 2, 3, 4, 5, 6, 7, 8, 0xff, 0xfe, 0x80, 0, 0x7f, 1, 2, 3, 0x80, 0, 0, 0, 0, 0, 0, 1}
	for _, shift := range []uint8{63, 56, 48, 32, 0} {
		f.Add(seed, int64(0), int64(100), shift)
		f.Add(seed, int64(-129), int64(128), shift)
		f.Add(seed, int64(math.MinInt64), int64(math.MaxInt64), shift)
		f.Add(seed, int64(-70000), int64(1<<40), shift)
	}
	ops := []expr.CmpOp{expr.Lt, expr.Le, expr.Gt, expr.Ge, expr.Eq, expr.Ne}
	specs := []AggSpec{
		{Kind: sql.AggCount, Star: true},
		{Kind: sql.AggSum, Col: ColKey{0, 0}},
		{Kind: sql.AggMin, Col: ColKey{0, 0}},
		{Kind: sql.AggMax, Col: ColKey{0, 0}},
	}
	f.Fuzz(func(t *testing.T, data []byte, lit, lit2 int64, shift uint8) {
		vals := make([]int64, 0, len(data)/8)
		for i := 0; i+8 <= len(data) && len(vals) < 512; i += 8 {
			vals = append(vals, int64(binary.LittleEndian.Uint64(data[i:]))>>(shift%64))
		}
		if len(vals) == 0 {
			return
		}
		narrow, wide := widthTwins(map[int][]int64{0: vals})
		lo, hi := narrow.Columns[0].IntRange()
		if w := narrow.Columns[0].Width(); w != storage.WidthFor(lo, hi) {
			t.Fatalf("width %d for [%d, %d]", w, lo, hi)
		}
		var conjs []expr.Conjunction
		for _, x := range []int64{lit, lit2, lo, hi, lo - 1, hi + 1} {
			for _, op := range ops {
				conjs = append(conjs, expr.Conjunction{Preds: []expr.Pred{{Col: 0, Op: op, Val: storage.IntValue(x)}}})
			}
		}
		conjs = append(conjs,
			expr.Conjunction{Preds: []expr.Pred{{Col: 0, Between: true, Val: storage.IntValue(lit), Val2: storage.IntValue(lit2)}}},
			expr.Conjunction{Preds: []expr.Pred{{Col: 0, Op: expr.Ne, Val: storage.IntValue(lit)}, {Col: 0, Op: expr.Ge, Val: storage.IntValue(lit2)}}},
		)
		for _, conj := range conjs {
			run := func(src DenseSource, agg bool) [][]storage.Value {
				op, err := NewDenseSelect(src, 0, []int{0}, conj, 7)
				if err != nil {
					t.Fatal(err)
				}
				arity := 1
				if agg {
					op, arity = NewAggOp(op, specs, []int{0, 1, 2, 3}), len(specs)
				} else {
					op = NewProjectOp(op, []ColKey{{0, 0}})
				}
				rows, err := drainRows(op, arity)
				if err != nil {
					t.Fatal(err)
				}
				return rows
			}
			for _, agg := range []bool{false, true} {
				got, want := run(narrow, agg), run(wide, agg)
				if len(got) != len(want) {
					t.Fatalf("%v (agg %v): %d rows, int64 twin %d", conj, agg, len(got), len(want))
				}
				for i := range got {
					for j := range got[i] {
						if got[i][j].Compare(want[i][j]) != 0 || got[i][j].Typ != want[i][j].Typ {
							t.Fatalf("%v (agg %v): row %d col %d = %v, int64 twin %v", conj, agg, i, j, got[i][j], want[i][j])
						}
					}
				}
			}
		}
	})
}
