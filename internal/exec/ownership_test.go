package exec

import (
	"math/rand"
	"testing"

	"nodb/internal/expr"
	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/storage"
)

// batchSource emits a view's rows in batches, alternating dense batches
// with selected ones whose live rows sit between dead positions. With
// scribble set it holds the batch contract to the letter: it owns one
// batch, and every Next first overwrites the previous batch's vectors and
// selection with junk before writing the next rows into the same arrays.
// Without it, every batch is freshly allocated and never touched again.
type batchSource struct {
	opBase
	v        *View
	keys     []ColKey
	size     int
	scribble bool
	pos, n   int
	b        Batch
	cols     []*storage.DenseColumn
}

func newBatchSource(v *View, size int, scribble bool) *batchSource {
	s := &batchSource{v: v, size: size, scribble: scribble}
	for k := range v.Cols {
		s.keys = append(s.keys, k)
	}
	return s
}

func (s *batchSource) Name() string         { return "batchSource" }
func (s *batchSource) Children() []Operator { return nil }
func (s *batchSource) Close()               {}

func (s *batchSource) Next() (*Batch, error) {
	if !s.scribble || s.cols == nil {
		s.b = Batch{Cols: newColMap(len(s.keys))}
		s.cols = make([]*storage.DenseColumn, len(s.keys))
		for j, k := range s.keys {
			s.cols[j] = storage.NewDense(s.v.Cols[k].Typ, 0)
			s.b.Cols[k] = s.cols[j]
		}
	}
	for _, c := range s.cols {
		for i := range c.Ints {
			c.Ints[i] = -1 << 40
		}
		for i := range c.Floats {
			c.Floats[i] = -1e300
		}
		for i := range c.Strs {
			c.Strs[i] = "junk"
		}
	}
	for i := range s.b.Sel {
		s.b.Sel[i] = 0
	}
	if s.pos >= s.v.Len() {
		return nil, nil
	}
	lo := s.pos
	hi := min(lo+s.size, s.v.Len())
	s.pos = hi
	sparse := s.n%2 == 1
	s.n++
	for j, k := range s.keys {
		c, src := s.cols[j], s.v.Cols[k]
		c.Ints, c.Floats, c.Strs = c.Ints[:0], c.Floats[:0], c.Strs[:0]
		for i := lo; i < hi; i++ {
			if sparse {
				appendAt(c, src, 0) // a dead position before every live row
			}
			appendAt(c, src, i)
		}
	}
	s.b.N, s.b.Sel = hi-lo, s.b.Sel[:0]
	if sparse {
		s.b.N *= 2
		for i := 1; i < s.b.N; i += 2 {
			s.b.Sel = append(s.b.Sel, int32(i))
		}
	} else {
		s.b.Sel = nil
	}
	return s.observe(&s.b), nil
}

// TestOperatorsCopyWhatTheyKeep runs every operator over a source that
// recycles its batch on each Next, and demands the answers the same trees
// give over a source that never reuses one.
func TestOperatorsCopyWhatTheyKeep(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	mk := func(tab, n int) *View {
		v := NewView()
		ik := storage.NewDense(schema.Int64, n)
		fv := storage.NewDense(schema.Float64, n)
		sv := storage.NewDense(schema.String, n)
		for i := 0; i < n; i++ {
			ik.Append(storage.IntValue(rng.Int63n(40)))
			fv.Append(storage.FloatValue(float64(rng.Int63n(100)) / 4))
			sv.Append(storage.StringValue([]string{"a", "b", "c", "dd"}[rng.Intn(4)]))
		}
		v.AddCol(ColKey{tab, 0}, ik)
		v.AddCol(ColKey{tab, 1}, fv)
		v.AddCol(ColKey{tab, 2}, sv)
		return v
	}
	left, right := mk(0, 500), mk(1, 120)
	k := func(tab, col int) ColKey { return ColKey{tab, col} }
	filter := func(src Operator) Operator {
		return NewFilterOp(src, 0, expr.Conjunction{Preds: []expr.Pred{
			{Col: 0, Op: expr.Ge, Val: storage.IntValue(3)},
			{Col: 0, Op: expr.Ne, Val: storage.IntValue(20)},
		}})
	}
	proj := []ColKey{k(0, 2), k(0, 1), k(0, 0)}
	sortKeys := []SortKey{{Index: 0}, {Index: 1, Desc: true}}
	specs := []AggSpec{
		{Kind: sql.AggSum, Col: k(0, 1)}, {Kind: sql.AggMin, Col: k(0, 2)},
		{Kind: sql.AggMax, Col: k(0, 0)}, {Kind: sql.AggCount, Star: true},
	}
	trees := map[string]struct {
		arity int
		build func(l, r Operator) Operator
	}{
		"filter-project": {3, func(l, _ Operator) Operator { return NewProjectOp(filter(l), proj) }},
		"aggregate":      {4, func(l, _ Operator) Operator { return NewAggOp(filter(l), specs, []int{0, 1, 2, 3}) }},
		"group-by": {5, func(l, _ Operator) Operator {
			slots := []OutSlot{{Idx: 0}, {Agg: true, Idx: 0}, {Agg: true, Idx: 1}, {Agg: true, Idx: 2}, {Agg: true, Idx: 3}}
			return NewGroupByOp(filter(l), []ColKey{k(0, 2)}, specs, slots, []ColKey{k(0, 2)}, 3)
		}},
		"group-by-2keys": {3, func(l, _ Operator) Operator {
			slots := []OutSlot{{Idx: 0}, {Idx: 1}, {Agg: true, Idx: 0}}
			keys := []ColKey{k(0, 2), k(0, 0)}
			return NewGroupByOp(l, keys, specs[:1], slots, keys, 7)
		}},
		"top-k": {3, func(l, _ Operator) Operator { return NewTopKOp(NewProjectOp(filter(l), proj), sortKeys, 3, 25, 4) }},
		"sort":  {3, func(l, _ Operator) Operator { return NewSortOp(NewProjectOp(filter(l), proj), sortKeys, 3, 6) }},
		"limit": {3, func(l, _ Operator) Operator { return NewLimitOp(NewProjectOp(filter(l), proj), 77) }},
		"hash-join": {3, func(l, r Operator) Operator {
			return NewProjectOp(NewHashJoinOp(filter(l), r, k(0, 0), k(1, 0), 16), []ColKey{k(0, 2), k(1, 1), k(0, 0)})
		}},
	}
	for name, tree := range trees {
		for _, size := range []int{1, 6, 64} {
			run := func(scribble bool) [][]storage.Value {
				root := tree.build(newBatchSource(left, size, scribble), newBatchSource(right, size, scribble))
				rows, err := drainRows(root, tree.arity)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return rows
			}
			want := run(false)
			if len(want) == 0 {
				t.Fatalf("%s: reference is empty; the tree tests nothing", name)
			}
			got := run(true)
			if len(got) != len(want) {
				t.Fatalf("%s size=%d: %d rows over a recycling source, want %d", name, size, len(got), len(want))
			}
			rowsEqual(t, got, want)
		}
	}
}
