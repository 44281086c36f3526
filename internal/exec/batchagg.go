package exec

import (
	"fmt"

	"nodb/internal/schema"
	"nodb/internal/sql"
	"nodb/internal/storage"
)

// OutSlot maps one select-list position: an aggregate (Idx into the
// plan's aggregate list) or a projected column (Idx into the plan's
// projection list). The engine derives it from the planner's slots so
// exec stays free of a plan dependency.
type OutSlot struct {
	Agg bool
	Idx int
}

// DrainRows pulls op to exhaustion and flattens its output-keyed batches
// into result rows of the given arity. Each batch contributes one flat
// backing array that the rows subslice, so the amortized cost stays well
// under one allocation per row.
func DrainRows(op Operator, arity int) ([][]storage.Value, error) {
	var out [][]storage.Value
	for {
		b, err := op.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		cols := make([]*storage.DenseColumn, arity)
		for j := 0; j < arity; j++ {
			if cols[j] = b.Cols[OutKey(j)]; cols[j] == nil {
				return nil, fmt.Errorf("exec: output column %d not in batch", j)
			}
		}
		rows := b.Rows()
		flat := make([]storage.Value, rows*arity)
		fill := func(r, i int) {
			row := flat[r*arity : (r+1)*arity : (r+1)*arity]
			for j, c := range cols {
				row[j] = c.Value(i)
			}
			out = append(out, row)
		}
		if b.Sel == nil {
			for i := 0; i < b.N; i++ {
				fill(i, i)
			}
		} else {
			for r, i := range b.Sel {
				fill(r, int(i))
			}
		}
	}
}

// rowEmitter re-batches materialized result rows, output-keyed.
type rowEmitter struct {
	rows [][]storage.Value
	size int
	pos  int
}

func newRowEmitter(rows [][]storage.Value, size int) *rowEmitter {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &rowEmitter{rows: rows, size: size}
}

func (e *rowEmitter) next() *Batch {
	if e.pos >= len(e.rows) {
		return nil
	}
	lo := e.pos
	hi := lo + e.size
	if hi > len(e.rows) {
		hi = len(e.rows)
	}
	e.pos = hi
	arity := len(e.rows[lo])
	b := &Batch{N: hi - lo, Cols: newColMap(arity)}
	for j := 0; j < arity; j++ {
		c := storage.NewDense(e.rows[lo][j].Typ, hi-lo)
		for i := lo; i < hi; i++ {
			c.Append(e.rows[i][j])
		}
		b.Cols[OutKey(j)] = c
	}
	return b
}

// AggOp folds its whole input into one output row of aggregate results.
// out maps select-list position to aggregate index. Accumulation runs
// typed loops over each batch's vectors; the scalar aggState supplies the
// result semantics shared with Aggregate and GroupBy (empty sum = int 0,
// avg of nothing = NaN, int sums stay int).
type AggOp struct {
	opBase
	child  Operator
	states []*aggState
	out    []int
	done   bool
}

func NewAggOp(child Operator, specs []AggSpec, out []int) *AggOp {
	states := make([]*aggState, len(specs))
	for i, s := range specs {
		states[i] = &aggState{spec: s}
	}
	return &AggOp{child: child, states: states, out: out}
}

func (a *AggOp) Name() string         { return fmt.Sprintf("Aggregate(%d)", len(a.states)) }
func (a *AggOp) Children() []Operator { return []Operator{a.child} }
func (a *AggOp) Close()               { a.child.Close() }

func (a *AggOp) Next() (*Batch, error) {
	if a.done {
		return nil, nil
	}
	for {
		b, err := a.child.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		if err := a.accumulate(b); err != nil {
			return nil, err
		}
	}
	a.done = true
	out := &Batch{N: 1, Cols: newColMap(len(a.out))}
	for i, si := range a.out {
		v := a.states[si].result()
		c := storage.NewDense(v.Typ, 1)
		c.Append(v)
		out.Cols[OutKey(i)] = c
	}
	return a.observe(out), nil
}

func (a *AggOp) accumulate(b *Batch) error {
	rows := int64(b.Rows())
	for _, st := range a.states {
		if st.spec.Star {
			st.count += rows
			continue
		}
		col := b.Cols[st.spec.Col]
		if col == nil {
			return fmt.Errorf("exec: aggregate column %v not in batch", st.spec.Col)
		}
		st.isInt = col.Typ == schema.Int64
		accumulateColumn(st, col, b.N, b.Sel, rows)
	}
	return nil
}

// accumulateColumn is the vectorized equivalent of calling aggState.add
// for every live row, in row order (float sums accumulate in input order,
// so the result does not depend on the batch size).
func accumulateColumn(st *aggState, col *storage.DenseColumn, n int, sel []int32, rows int64) {
	st.count += rows
	switch st.spec.Kind {
	case sql.AggSum, sql.AggAvg:
		switch col.Typ {
		case schema.Int64:
			v := col.Ints
			if sel == nil {
				for _, x := range v[:n] {
					st.sumI += x
				}
			} else {
				for _, i := range sel {
					st.sumI += v[i]
				}
			}
		case schema.Float64:
			v := col.Floats
			if sel == nil {
				for _, x := range v[:n] {
					st.sumF += x
				}
			} else {
				for _, i := range sel {
					st.sumF += v[i]
				}
			}
		default:
			// Strings widen to 0 under AsFloat; the sum is unchanged.
		}
	case sql.AggMin:
		if cand, ok := columnExtreme(col, n, sel, true); ok {
			if !st.seen || cand.Compare(st.min) < 0 {
				st.min = cand
			}
		}
	case sql.AggMax:
		if cand, ok := columnExtreme(col, n, sel, false); ok {
			if !st.seen || cand.Compare(st.max) > 0 {
				st.max = cand
			}
		}
	}
	if rows > 0 {
		st.seen = true
	}
}

// columnExtreme returns the batch-local min (or max) of the live rows,
// keeping the first occurrence on ties like sequential aggState.add.
func columnExtreme(col *storage.DenseColumn, n int, sel []int32, wantMin bool) (storage.Value, bool) {
	switch col.Typ {
	case schema.Int64:
		v := col.Ints
		var best int64
		first := true
		scan := func(x int64) {
			if first || (wantMin && x < best) || (!wantMin && x > best) {
				best, first = x, false
			}
		}
		if sel == nil {
			for _, x := range v[:n] {
				scan(x)
			}
		} else {
			for _, i := range sel {
				scan(v[i])
			}
		}
		if first {
			return storage.Value{}, false
		}
		return storage.IntValue(best), true
	case schema.Float64:
		v := col.Floats
		var best float64
		first := true
		scan := func(x float64) {
			if first || (wantMin && x < best) || (!wantMin && x > best) {
				best, first = x, false
			}
		}
		if sel == nil {
			for _, x := range v[:n] {
				scan(x)
			}
		} else {
			for _, i := range sel {
				scan(v[i])
			}
		}
		if first {
			return storage.Value{}, false
		}
		return storage.FloatValue(best), true
	default:
		v := col.Strs
		var best string
		first := true
		scan := func(x string) {
			if first || (wantMin && x < best) || (!wantMin && x > best) {
				best, first = x, false
			}
		}
		if sel == nil {
			for _, x := range v[:n] {
				scan(x)
			}
		} else {
			for _, i := range sel {
				scan(v[i])
			}
		}
		if first {
			return storage.Value{}, false
		}
		return storage.StringValue(best), true
	}
}

// GroupByOp materializes its input, groups by the key columns and emits
// one output row per group in first-appearance order, shaped by slots
// (proj[Idx] must be one of the group keys, as the planner guarantees).
type GroupByOp struct {
	opBase
	child Operator
	keys  []ColKey
	specs []AggSpec
	slots []OutSlot
	proj  []ColKey
	size  int
	emit  *rowEmitter
	done  bool
}

func NewGroupByOp(child Operator, keys []ColKey, specs []AggSpec, slots []OutSlot, proj []ColKey, batchSize int) *GroupByOp {
	return &GroupByOp{child: child, keys: keys, specs: specs, slots: slots, proj: proj, size: batchSize}
}

func (g *GroupByOp) Name() string {
	return fmt.Sprintf("GroupBy(%v aggs=%d)", g.keys, len(g.specs))
}
func (g *GroupByOp) Children() []Operator { return []Operator{g.child} }
func (g *GroupByOp) Close()               { g.child.Close() }

func (g *GroupByOp) Next() (*Batch, error) {
	if g.done {
		return nil, nil
	}
	if g.emit == nil {
		v, err := DrainView(g.child)
		if err != nil {
			return nil, err
		}
		if v.Len() == 0 {
			g.done = true
			return nil, nil
		}
		grouped, err := GroupBy(v, g.keys, g.specs)
		if err != nil {
			return nil, err
		}
		pos, err := g.slotPositions()
		if err != nil {
			return nil, err
		}
		rows := make([][]storage.Value, len(grouped))
		for i, gr := range grouped {
			row := make([]storage.Value, len(pos))
			for j, p := range pos {
				row[j] = gr[p]
			}
			rows[i] = row
		}
		g.emit = newRowEmitter(rows, g.size)
	}
	b := g.emit.next()
	if b == nil {
		g.done = true
		return nil, nil
	}
	return g.observe(b), nil
}

// slotPositions maps each output slot to its index in GroupBy's
// keys-then-aggregates row layout.
func (g *GroupByOp) slotPositions() ([]int, error) {
	pos := make([]int, len(g.slots))
	for i, s := range g.slots {
		if s.Agg {
			pos[i] = len(g.keys) + s.Idx
			continue
		}
		k := g.proj[s.Idx]
		found := -1
		for j, gk := range g.keys {
			if gk == k {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("exec: projected column %v is not a group key", k)
		}
		pos[i] = found
	}
	return pos, nil
}

// SortOp materializes its (output-keyed) input, sorts and re-emits.
type SortOp struct {
	opBase
	child Operator
	keys  []SortKey
	arity int
	size  int
	emit  *rowEmitter
}

func NewSortOp(child Operator, keys []SortKey, arity, batchSize int) *SortOp {
	return &SortOp{child: child, keys: keys, arity: arity, size: batchSize}
}

func (s *SortOp) Name() string         { return fmt.Sprintf("Sort(%v)", s.keys) }
func (s *SortOp) Children() []Operator { return []Operator{s.child} }
func (s *SortOp) Close()               { s.child.Close() }

func (s *SortOp) Next() (*Batch, error) {
	if s.emit == nil {
		rows, err := DrainRows(s.child, s.arity)
		if err != nil {
			return nil, err
		}
		SortRows(rows, s.keys)
		s.emit = newRowEmitter(rows, s.size)
	}
	b := s.emit.next()
	if b == nil {
		return nil, nil
	}
	return s.observe(b), nil
}
