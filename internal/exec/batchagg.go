package exec

import (
	"cmp"
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

// AggOp folds its whole input into one output row of aggregate results.
// out maps select-list position to aggregate index. Accumulation runs
// typed loops over each batch's vectors into one aggState per aggregate,
// whose result semantics GroupByOp shares (empty sum = int 0, avg of
// nothing = NaN, int sums stay int).
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

// accumulateColumn folds the live rows of col into st in row order (float
// sums accumulate in input order, so the result does not depend on the
// batch size). Int columns of every width sum in int64.
func accumulateColumn(st *aggState, col *storage.DenseColumn, n int, sel []int32, rows int64) {
	st.count += rows
	switch st.spec.Kind {
	case sql.AggSum, sql.AggAvg:
		switch col.Typ {
		case schema.Int64:
			switch col.Width() {
			case 1:
				st.sumI += sumInts(col.I8, n, sel)
			case 2:
				st.sumI += sumInts(col.I16, n, sel)
			case 4:
				st.sumI += sumInts(col.I32, n, sel)
			default:
				st.sumI += sumInts(col.Ints, n, sel)
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

// sumInts returns the int64 sum of the live rows of v.
func sumInts[T storage.Int](v []T, n int, sel []int32) int64 {
	var s int64
	if sel == nil {
		for _, x := range v[:n] {
			s += int64(x)
		}
		return s
	}
	for _, i := range sel {
		s += int64(v[i])
	}
	return s
}

// columnExtreme returns the batch-local min (or max) of the live rows,
// keeping the first occurrence on ties, as a row-at-a-time fold would.
func columnExtreme(col *storage.DenseColumn, n int, sel []int32, wantMin bool) (storage.Value, bool) {
	switch col.Typ {
	case schema.Int64:
		switch col.Width() {
		case 1:
			return intExtreme(col.I8, n, sel, wantMin)
		case 2:
			return intExtreme(col.I16, n, sel, wantMin)
		case 4:
			return intExtreme(col.I32, n, sel, wantMin)
		}
		return intExtreme(col.Ints, n, sel, wantMin)
	case schema.Float64:
		x, ok := extreme(col.Floats, n, sel, wantMin)
		return storage.FloatValue(x), ok
	default:
		x, ok := extreme(col.Strs, n, sel, wantMin)
		return storage.StringValue(x), ok
	}
}

func intExtreme[T storage.Int](v []T, n int, sel []int32, wantMin bool) (storage.Value, bool) {
	x, ok := extreme(v, n, sel, wantMin)
	return storage.IntValue(int64(x)), ok
}

// extreme returns the min (or max) of the live rows of v and whether there
// was one. Only a strictly lower (or higher) value replaces the best, so a
// NaN never does, as in a row-at-a-time fold.
func extreme[T cmp.Ordered](v []T, n int, sel []int32, wantMin bool) (T, bool) {
	var best T
	first := true
	scan := func(x T) {
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
	return best, !first
}
