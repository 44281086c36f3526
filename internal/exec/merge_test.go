package exec

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/storage"
)

func intRow(vals ...int64) []storage.Value {
	row := make([]storage.Value, len(vals))
	for i, v := range vals {
		row[i] = storage.IntValue(v)
	}
	return row
}

// errIter yields its rows, then fails.
type errIter struct {
	rows [][]storage.Value
	i    int
	err  error
}

func (e *errIter) Next() ([]storage.Value, bool, error) {
	if e.i < len(e.rows) {
		r := e.rows[e.i]
		e.i++
		return r, true, nil
	}
	return nil, false, e.err
}

func TestConcatOrderAndLimit(t *testing.T) {
	in := []RowIter{
		NewSliceIter([][]storage.Value{intRow(1), intRow(2)}),
		NewSliceIter(nil),
		NewSliceIter([][]storage.Value{intRow(3), intRow(4)}),
	}
	c := NewConcat(in, 3, nil)
	got, err := DrainRowIter(c)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(got) != 3 || got[0][0].I != 1 || got[1][0].I != 2 || got[2][0].I != 3 {
		t.Fatalf("wrong rows: %v", got)
	}
	if c.Emitted() != 3 {
		t.Fatalf("Emitted = %d, want 3", c.Emitted())
	}
}

func TestConcatStreamError(t *testing.T) {
	boom := errors.New("shard died")
	in := []RowIter{
		&errIter{rows: [][]storage.Value{intRow(1)}, err: boom},
		NewSliceIter([][]storage.Value{intRow(2)}),
	}
	// Abort mode: the error surfaces.
	if _, err := DrainRowIter(NewConcat(in, -1, nil)); !errors.Is(err, boom) {
		t.Fatalf("want stream error, got %v", err)
	}
	// Partial mode: the failed stream is dropped, later streams continue.
	in = []RowIter{
		&errIter{rows: [][]storage.Value{intRow(1)}, err: boom},
		NewSliceIter([][]storage.Value{intRow(2)}),
	}
	var dropped []int
	got, err := DrainRowIter(NewConcat(in, -1, func(i int, err error) bool {
		dropped = append(dropped, i)
		return true
	}))
	if err != nil {
		t.Fatalf("partial drain: %v", err)
	}
	if len(got) != 2 || len(dropped) != 1 || dropped[0] != 0 {
		t.Fatalf("partial results wrong: rows=%v dropped=%v", got, dropped)
	}
}

// TestMergeSortedMatchesSliceStable pins the byte-identity property: the
// k-way merge over sorted shard slices equals sort.SliceStable over their
// concatenation, ties and all.
func TestMergeSortedMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		nShards := 1 + rng.Intn(4)
		keys := []SortKey{{Index: 0, Desc: trial%2 == 1}}
		var all [][]storage.Value
		var inputs []RowIter
		for s := 0; s < nShards; s++ {
			var rows [][]storage.Value
			for r := 0; r < rng.Intn(30); r++ {
				// Small value domain forces cross-shard ties; the second
				// column records provenance so tie order is observable.
				rows = append(rows, intRow(int64(rng.Intn(5)), int64(s*1000+r)))
			}
			SortRows(rows, keys)
			all = append(all, rows...)
			inputs = append(inputs, NewSliceIter(rows))
		}
		want := append([][]storage.Value(nil), all...)
		sort.SliceStable(want, func(i, j int) bool { return lessRows(want[i], want[j], keys) })

		got, err := DrainRowIter(NewMergeSorted(inputs, keys, -1, nil))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i][0].I != want[i][0].I || got[i][1].I != want[i][1].I {
				t.Fatalf("trial %d row %d: got %v want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestMergeSortedLimitStopsPulling pins the deferred-advance contract: once
// the limit is satisfied, no input is touched again — so a stream that
// would error past that point never gets the chance to.
func TestMergeSortedLimitStopsPulling(t *testing.T) {
	in := []RowIter{
		&errIter{rows: [][]storage.Value{intRow(1), intRow(3)}, err: errors.New("cancelled upstream")},
		NewSliceIter([][]storage.Value{intRow(2)}),
	}
	got, err := DrainRowIter(NewMergeSorted(in, []SortKey{{Index: 0}}, 2, nil))
	if err != nil {
		t.Fatalf("limit-bounded merge hit upstream error: %v", err)
	}
	if len(got) != 2 || got[0][0].I != 1 || got[1][0].I != 2 {
		t.Fatalf("wrong rows: %v", got)
	}
}

func TestAggMergerMergesPartials(t *testing.T) {
	specs := []PartialAggSpec{
		{Kind: sql.AggCount, Col: 0},
		{Kind: sql.AggSum, Col: 1},
		{Kind: sql.AggMin, Col: 2},
		{Kind: sql.AggMax, Col: 3},
		{Kind: sql.AggAvg, Col: 4, CountCol: 5},
	}
	// Rows: count, sum, min, max, avg-sum, avg-count, sentinel count(*).
	m := NewAggMerger(specs, 6)
	m.Absorb(intRow(3, 30, 5, 9, 30, 3, 3))
	m.Absorb(intRow(0, 0, 0, 0, 0, 0, 0)) // empty shard: sentinel 0, placeholders skipped
	m.Absorb(intRow(2, 12, 2, 7, 12, 2, 2))
	got := m.Result()
	if got[0].I != 5 || got[1].I != 42 || got[2].I != 2 || got[3].I != 9 {
		t.Fatalf("count/sum/min/max wrong: %v", got)
	}
	if want := 42.0 / 5.0; got[4].F != want {
		t.Fatalf("avg = %v, want %v", got[4].F, want)
	}
}

func TestAggMergerEmptyMatchesSingleNode(t *testing.T) {
	// All shards empty: the merged answer must equal what aggState
	// produces over zero rows — count 0, integer sum 0, NaN avg.
	m := NewAggMerger([]PartialAggSpec{
		{Kind: sql.AggCount, Col: 0},
		{Kind: sql.AggSum, Col: 1},
		{Kind: sql.AggAvg, Col: 2, CountCol: 3},
		{Kind: sql.AggMin, Col: 4},
	}, 5)
	m.Absorb(intRow(0, 0, 0, 0, 0, 0))
	got := m.Result()
	if got[0].I != 0 || got[0].Typ != 0 {
		t.Fatalf("empty count = %v", got[0])
	}
	if got[1].I != 0 || got[1].Typ != 0 {
		t.Fatalf("empty sum = %v (want integer zero)", got[1])
	}
	if !math.IsNaN(got[2].F) {
		t.Fatalf("empty avg = %v, want NaN", got[2])
	}
	if got[3] != (storage.Value{}) {
		t.Fatalf("empty min = %v, want zero Value", got[3])
	}
}

func TestAggMergerFloatPromotion(t *testing.T) {
	m := NewAggMerger([]PartialAggSpec{{Kind: sql.AggSum, Col: 0}}, 1)
	m.Absorb(intRow(10, 1))
	m.Absorb([]storage.Value{storage.FloatValue(2.5), storage.IntValue(1)})
	m.Absorb(intRow(3, 1))
	got := m.Result()
	if got[0].F != 15.5 {
		t.Fatalf("mixed sum = %v, want 15.5", got[0])
	}
}

func TestGroupMergerFirstAppearanceOrder(t *testing.T) {
	specs := []PartialAggSpec{
		{Kind: sql.AggNone, Col: 0},
		{Kind: sql.AggSum, Col: 1},
		{Kind: sql.AggAvg, Col: 1, CountCol: 2},
	}
	m := NewGroupMerger([]int{0}, specs)
	// Shard 0 sees groups 7 then 3; shard 1 sees 3 then 9. Merged order
	// must be first-appearance across the absorption sequence: 7, 3, 9.
	m.Absorb(intRow(7, 10, 2))
	m.Absorb(intRow(3, 6, 3))
	m.Absorb(intRow(3, 4, 1))
	m.Absorb(intRow(9, 1, 1))
	rows := m.Rows()
	if len(rows) != 3 {
		t.Fatalf("%d groups, want 3", len(rows))
	}
	wantKeys := []int64{7, 3, 9}
	wantSums := []int64{10, 10, 1}
	wantAvgs := []float64{5, 2.5, 1}
	for i, r := range rows {
		if r[0].I != wantKeys[i] || r[1].I != wantSums[i] || r[2].F != wantAvgs[i] {
			t.Fatalf("group %d = %v, want key=%d sum=%d avg=%v", i, r, wantKeys[i], wantSums[i], wantAvgs[i])
		}
	}
}

func TestGroupMergerCompositeKey(t *testing.T) {
	specs := []PartialAggSpec{
		{Kind: sql.AggNone, Col: 0},
		{Kind: sql.AggNone, Col: 1},
		{Kind: sql.AggCount, Col: 2},
	}
	m := NewGroupMerger([]int{0, 1}, specs)
	m.Absorb(intRow(1, 2, 5))
	m.Absorb(intRow(1, 2, 3))
	m.Absorb(intRow(2, 1, 1)) // same digits, different key
	rows := m.Rows()
	if len(rows) != 2 || rows[0][2].I != 8 || rows[1][2].I != 1 {
		t.Fatalf("composite key merge wrong: %v", rows)
	}
}

// TestMergeRoundTripAgainstGroupBy runs the same data through the
// single-node GroupBy and through sharded partial aggregation + GroupMerger
// and requires identical output, row for row.
func TestMergeRoundTripAgainstGroupBy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var data [][]storage.Value
	for i := 0; i < 300; i++ {
		data = append(data, intRow(int64(rng.Intn(7)), int64(rng.Intn(100))))
	}
	keys := []ColKey{{Tab: 0, Col: 0}}
	aggs := []AggSpec{{Kind: sql.AggSum, Col: ColKey{Tab: 0, Col: 1}}, {Kind: sql.AggCount, Star: true}}
	single := runGroupBy(t, data, keys, aggs)

	// Shard the rows contiguously, aggregate each shard, merge partials.
	// Partial-row layout: key, sum, count(*).
	m := NewGroupMerger([]int{0}, []PartialAggSpec{
		{Kind: sql.AggNone, Col: 0},
		{Kind: sql.AggSum, Col: 1},
		{Kind: sql.AggCount, Col: 2},
	})
	for s := 0; s < 3; s++ {
		lo, hi := s*100, (s+1)*100
		for _, part := range runGroupBy(t, data[lo:hi], keys, aggs) {
			m.Absorb(part)
		}
	}
	merged := m.Rows()
	if len(merged) != len(single) {
		t.Fatalf("%d merged groups, want %d", len(merged), len(single))
	}
	for i := range merged {
		for j := range merged[i] {
			if merged[i][j] != single[i][j] {
				t.Fatalf("row %d differs: merged=%v single=%v", i, merged[i], single[i])
			}
		}
	}
}

// runGroupBy evaluates a group-by over materialized rows through the real
// single-node GroupBy operator.
func runGroupBy(t *testing.T, data [][]storage.Value, keys []ColKey, aggs []AggSpec) [][]storage.Value {
	t.Helper()
	v := NewView()
	nCols := 0
	if len(data) > 0 {
		nCols = len(data[0])
	} else {
		nCols = 2
	}
	for c := 0; c < nCols; c++ {
		col := storage.NewDense(schema.Int64, len(data))
		for _, row := range data {
			col.Append(row[c])
		}
		v.AddCol(ColKey{Tab: 0, Col: c}, col)
	}
	v.Rows = make([]int64, len(data))
	rows, err := groupRows(v, keys, aggs)
	if err != nil {
		t.Fatalf("GroupBy: %v", err)
	}
	return rows
}

func ExampleConcat() {
	c := NewConcat([]RowIter{
		NewSliceIter([][]storage.Value{intRow(1)}),
		NewSliceIter([][]storage.Value{intRow(2)}),
	}, -1, nil)
	rows, _ := DrainRowIter(c)
	fmt.Println(len(rows), rows[0][0].I, rows[1][0].I)
	// Output: 2 1 2
}
