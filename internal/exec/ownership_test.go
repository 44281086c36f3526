package exec

import (
	"math/rand"
	"slices"
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
// With rotate set it breaks the one-layout rule consumers rely on: every
// batch lists the same columns under a new rotation of the key order.
type batchSource struct {
	opBase
	v        *View
	keys     []ColKey
	size     int
	scribble bool
	rotate   bool
	pos, n   int
	b        Batch
	cols     []*storage.DenseColumn
}

func newBatchSource(v *View, size int, scribble bool) *batchSource {
	s := &batchSource{v: v, size: size, scribble: scribble}
	s.keys, _ = v.columns()
	return s
}

func (s *batchSource) Name() string         { return "batchSource" }
func (s *batchSource) Children() []Operator { return nil }
func (s *batchSource) Close()               {}

func (s *batchSource) Next() (*Batch, error) {
	if !s.scribble || s.cols == nil {
		s.cols = make([]*storage.DenseColumn, len(s.keys))
		for j, k := range s.keys {
			s.cols[j] = storage.NewDense(s.v.Cols[k].Typ, 0)
		}
		s.b = Batch{Keys: s.keys, Vecs: s.cols}
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
	if s.rotate {
		r := s.n % len(s.keys)
		s.b.Keys = append(slices.Clone(s.keys[r:]), s.keys[:r]...)
		s.b.Vecs = append(slices.Clone(s.cols[r:]), s.cols[:r]...)
	}
	return s.observe(&s.b), nil
}

// TestOperatorsCopyWhatTheyKeep runs every operator over a source that
// recycles its batch on each Next, and demands the answers the same trees
// give over a source that never reuses one; and the same answers over a
// source that changes its key layout between batches.
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
			run := func(scribble, rotate bool) [][]storage.Value {
				l, r := newBatchSource(left, size, scribble), newBatchSource(right, size, scribble)
				l.rotate, r.rotate = rotate, rotate
				root := tree.build(l, r)
				rows, err := drainRows(root, tree.arity)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return rows
			}
			want := run(false, false)
			if len(want) == 0 {
				t.Fatalf("%s: reference is empty; the tree tests nothing", name)
			}
			got := run(true, false)
			if len(got) != len(want) {
				t.Fatalf("%s size=%d: %d rows over a recycling source, want %d", name, size, len(got), len(want))
			}
			rowsEqual(t, got, want)
			// A source that reorders its keys on every batch defeats each
			// consumer's cached slot; the answers must not change.
			rowsEqual(t, run(false, true), want)
		}
	}
}

// TestBatchLayoutFixed: every operator emits the same Keys, in the same
// order, in every batch, with one vector per key — the layout consumers
// cache their slots against.
func TestBatchLayoutFixed(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i % 13)
	}
	src := mkSource(map[int][]int64{0: vals, 1: vals, 2: vals})
	scan := func() Operator { return mustDenseScan(t, src, 0, []int{0, 1, 2}, 7) }
	filter := func() Operator {
		return NewFilterOp(scan(), 0, expr.Conjunction{Preds: []expr.Pred{intPred(0, expr.Ge, 2), intPred(1, expr.Ne, 5)}})
	}
	keys := []ColKey{{0, 2}, {0, 0}}
	project := func() Operator { return NewProjectOp(filter(), keys) }
	sortKeys := []SortKey{{Index: 1, Desc: true}}
	specs := []AggSpec{{Kind: sql.AggCount, Star: true}, {Kind: sql.AggSum, Col: ColKey{0, 1}}}
	right := mkView(1, map[int][]int64{0: {1, 2, 3, 4, 5, 6, 7, 8}, 1: {9, 8, 7, 6, 5, 4, 3, 2}})
	trees := map[string]Operator{
		"dense-scan": scan(),
		"view-scan":  NewViewScan(mkView(0, map[int][]int64{0: vals, 1: vals}), 9),
		"filter":     filter(),
		"project":    project(),
		"aggregate":  NewAggOp(filter(), specs, []int{1, 0}),
		"group-by": NewGroupByOp(filter(), []ColKey{{0, 0}}, specs,
			[]OutSlot{{Idx: 0}, {Agg: true, Idx: 0}, {Agg: true, Idx: 1}}, []ColKey{{0, 0}}, 4),
		"sort":      NewSortOp(project(), sortKeys, 2, 5),
		"top-k":     NewTopKOp(project(), sortKeys, 2, 30, 5),
		"hash-join": NewHashJoinOp(filter(), NewViewScan(right, 3), ColKey{0, 0}, ColKey{1, 0}, 6),
		"limit":     NewLimitOp(project(), 40),
	}
	for name, op := range trees {
		var first []ColKey
		batches := 0
		for {
			b, err := op.Next()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if b == nil {
				break
			}
			if len(b.Vecs) != len(b.Keys) {
				t.Fatalf("%s batch %d: %d keys, %d vectors", name, batches, len(b.Keys), len(b.Vecs))
			}
			if batches == 0 {
				first = slices.Clone(b.Keys)
			} else if !slices.Equal(b.Keys, first) {
				t.Fatalf("%s batch %d: keys %v, first batch %v", name, batches, b.Keys, first)
			}
			batches++
		}
		if batches < 2 && name != "aggregate" {
			t.Fatalf("%s: %d batches; the layout is not tested across batches", name, batches)
		}
	}
}
