package expr

import (
	"cmp"

	"nodb/internal/schema"
	"nodb/internal/storage"
)

// This file is the vectorized half of the package: a conjunction compiled
// against its columns' types and applied to whole column vectors through
// selection vectors. A selection vector holds the positions (within a
// batch) that are still alive; filtering shrinks it and never copies or
// moves values. All integer-literal predicates on an int64 column fold
// into one closed interval, tested with one unsigned compare per row; every
// other predicate keeps its own typed loop. The loops are branch-free: each
// writes every candidate position and advances its output cursor by the
// comparison's 0/1 result, so their speed does not depend on selectivity.

// Filter is a Conjunction compiled for one set of column types. The zero
// Filter keeps every row.
type Filter struct {
	steps []step
	none  bool // the predicates contradict each other: no row survives
}

// step is one pass over column col: the folded interval [lo, hi] when
// ranged, else the single predicate pred.
type step struct {
	col    int
	ranged bool
	lo, hi int64
	pred   Pred
}

// Compile folds c for the column types typeOf reports.
func (c Conjunction) Compile(typeOf func(col int) schema.Type) Filter {
	return c.compile(nil, typeOf)
}

// compile appends c's steps to dst: per column in first-appearance order,
// the folded interval of an int64 column first, then the column's other
// predicates in statement order.
func (c Conjunction) compile(dst []step, typeOf func(col int) schema.Type) Filter {
	for i, p := range c.Preds {
		if c.seenBefore(i) {
			continue
		}
		intCol := typeOf(p.Col) == schema.Int64
		if intCol {
			lo, hi, n, ok := c.foldInt(p.Col)
			if !ok {
				return Filter{none: true}
			}
			if n > 0 {
				dst = append(dst, step{col: p.Col, ranged: true, lo: lo, hi: hi})
			}
		}
		for _, q := range c.Preds[i:] {
			if q.Col == p.Col && !(intCol && q.foldable()) {
				dst = append(dst, step{col: q.Col, pred: q})
			}
		}
	}
	return Filter{steps: dst}
}

// seenBefore reports whether a predicate before position i shares its
// column.
func (c Conjunction) seenBefore(i int) bool {
	for _, p := range c.Preds[:i] {
		if p.Col == c.Preds[i].Col {
			return true
		}
	}
	return false
}

// Apply writes the positions that satisfy every predicate into out and
// returns them, ascending. The input is the positions sel of a batch of n
// rows, or all n rows when sel is nil; the first step over such a dense
// batch writes positions directly. out must have capacity for n (dense) or
// len(sel) positions, and may be sel itself. get maps a column index to its
// vector.
func (f *Filter) Apply(get func(col int) *storage.DenseColumn, n int, sel, out []int32) []int32 {
	if f.none {
		return out[:0]
	}
	if sel != nil {
		n = len(sel)
	}
	out = out[:n]
	if len(f.steps) == 0 {
		if sel != nil {
			copy(out, sel)
			return out
		}
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	k := n
	for i := range f.steps {
		s := &f.steps[i]
		switch {
		case i > 0:
			k = s.apply(get(s.col), out[:k], out)
		case sel == nil:
			k = s.dense(get(s.col), out)
		default:
			k = s.apply(get(s.col), sel, out)
		}
		if k == 0 {
			break
		}
	}
	return out[:k]
}

// dense runs the step over every row of a batch of len(out) rows.
func (s *step) dense(col *storage.DenseColumn, out []int32) int {
	if s.ranged {
		return selectRangeDense(col.Ints[:len(out)], s.lo, s.hi, out)
	}
	for i := range out {
		out[i] = int32(i)
	}
	return s.apply(col, out, out)
}

// apply runs the step over the positions sel.
func (s *step) apply(col *storage.DenseColumn, sel, out []int32) int {
	if s.ranged {
		return selectRange(col.Ints, s.lo, s.hi, sel, out)
	}
	return s.pred.selectColumn(col, sel, out)
}

// FilterBatch refines sel — positions into the batch's column vectors —
// in place, keeping only rows that satisfy every predicate. get maps a
// predicate's column index to its vector. The conjunction compiles into a
// stack buffer, so a call does not allocate.
func (c Conjunction) FilterBatch(get func(col int) *storage.DenseColumn, sel []int32) []int32 {
	var buf [8]step
	f := c.compile(buf[:0], func(col int) schema.Type { return get(col).Typ })
	return f.Apply(get, len(sel), sel, sel)
}

// selectColumn writes the positions of sel whose value in col satisfies p
// to out and returns their count. Same-type-family comparisons run typed
// loops (on an int64 column only `<>` gets here: the other int-literal
// predicates fold); mixed-type literals (e.g. an int column against a
// float literal) fall back to the boxed Eval, whose semantics the loops
// replicate.
func (p Pred) selectColumn(col *storage.DenseColumn, sel, out []int32) int {
	switch col.Typ {
	case schema.Int64:
		if !p.Between && p.Val.Typ == schema.Int64 {
			return selectCmp(col.Ints, p.Op, p.Val.I, sel, out)
		}
	case schema.Float64:
		if p.Between {
			if p.Val.Typ != schema.String && p.Val2.Typ != schema.String {
				return selectBetween(col.Floats, p.Val.AsFloat(), p.Val2.AsFloat(), sel, out)
			}
		} else if p.Val.Typ != schema.String {
			return selectCmp(col.Floats, p.Op, p.Val.AsFloat(), sel, out)
		}
	case schema.String:
		if p.Between {
			if p.Val.Typ == schema.String && p.Val2.Typ == schema.String {
				return selectBetween(col.Strs, p.Val.S, p.Val2.S, sel, out)
			}
		} else if p.Val.Typ == schema.String {
			return selectCmp(col.Strs, p.Op, p.Val.S, sel, out)
		}
	}
	k := 0
	for _, i := range sel {
		out[k] = i
		k += b2i(p.Eval(col.Value(int(i))))
	}
	return k
}

// b2i is 1 for true and 0 for false. The compiler lowers it to a flag
// move, so the loops below advance their cursor without a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// selectRange keeps the positions whose value lies in [lo, hi] with one
// unsigned compare: v-lo wraps past hi-lo exactly when v is outside.
func selectRange(v []int64, lo, hi int64, sel, out []int32) int {
	span, k := uint64(hi-lo), 0
	for _, i := range sel {
		out[k] = i
		k += b2i(uint64(v[i]-lo) <= span)
	}
	return k
}

// selectRangeDense is selectRange over every position of v.
func selectRangeDense(v []int64, lo, hi int64, out []int32) int {
	span, k := uint64(hi-lo), 0
	for i, x := range v {
		out[k] = int32(i)
		k += b2i(uint64(x-lo) <= span)
	}
	return k
}

func selectCmp[T cmp.Ordered](v []T, op CmpOp, x T, sel, out []int32) int {
	k := 0
	switch op {
	case Lt:
		for _, i := range sel {
			out[k] = i
			k += b2i(v[i] < x)
		}
	case Le:
		for _, i := range sel {
			out[k] = i
			k += b2i(v[i] <= x)
		}
	case Gt:
		for _, i := range sel {
			out[k] = i
			k += b2i(v[i] > x)
		}
	case Ge:
		for _, i := range sel {
			out[k] = i
			k += b2i(v[i] >= x)
		}
	case Eq:
		for _, i := range sel {
			out[k] = i
			k += b2i(v[i] == x)
		}
	case Ne:
		for _, i := range sel {
			out[k] = i
			k += b2i(v[i] != x)
		}
	}
	return k
}

func selectBetween[T cmp.Ordered](v []T, lo, hi T, sel, out []int32) int {
	k := 0
	for _, i := range sel {
		x := v[i]
		out[k] = i
		k += b2i(x >= lo) & b2i(x <= hi)
	}
	return k
}
