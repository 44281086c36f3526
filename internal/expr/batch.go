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
// other predicate keeps its own typed loop. The int loops are generic over
// the column's physical width and compare in int64, so a literal outside
// the width's range compares as it would against int64 values. The loops
// are branch-free: each writes every candidate position and advances its
// output cursor by the comparison's 0/1 result, so their speed does not
// depend on selectivity. The first step of a filter over a dense batch,
// the folded interval, runs an AVX2 kernel on amd64 CPUs that have it
// (select_amd64.s): 8 rows per step at every width, each lane compared
// with one biased signed compare, the survivors written by one table
// lookup on the lanes' mask. The folded interval over a selection vector
// runs a gather kernel on 4- and 8-byte columns: 8 positions per step,
// their rows gathered, the same compare, the kept positions written by
// one permutation of the loaded ones. The Go loops take the last len%8
// rows or positions, 1- and 2-byte columns over a selection vector, other
// architectures and CPUs without AVX2, and are the references the kernels
// are tested against.

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
		n := len(out)
		switch col.Width() {
		case 1:
			return selectRangeDense(col.I8[:n], s.lo, s.hi, out)
		case 2:
			return selectRangeDense(col.I16[:n], s.lo, s.hi, out)
		case 4:
			return selectRangeDense(col.I32[:n], s.lo, s.hi, out)
		}
		return selectRangeDense(col.Ints[:n], s.lo, s.hi, out)
	}
	for i := range out {
		out[i] = int32(i)
	}
	return s.apply(col, out, out)
}

// apply runs the step over the positions sel.
func (s *step) apply(col *storage.DenseColumn, sel, out []int32) int {
	if s.ranged {
		switch col.Width() {
		case 1:
			return selectRangeGo(col.I8, 0, 0, s.lo, s.hi, sel, out)
		case 2:
			return selectRangeGo(col.I16, 0, 0, s.lo, s.hi, sel, out)
		case 4:
			return selectRange32(col.I32, s.lo, s.hi, sel, out)
		}
		return selectRangeGo(col.Ints, 0, 0, s.lo, s.hi, sel, out)
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
			switch col.Width() {
			case 1:
				return selectInts(p, col.I8, sel, out)
			case 2:
				return selectInts(p, col.I16, sel, out)
			case 4:
				return selectInts(p, col.I32, sel, out)
			}
			return selectInts(p, col.Ints, sel, out)
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

// selectInts is selectCmp over an int column stored at width T. A literal
// outside T's range compares the same way against every value, as it does
// against 0: the positions all survive or none does.
func selectInts[T storage.Int](p Pred, v []T, sel, out []int32) int {
	if x := T(p.Val.I); int64(x) == p.Val.I {
		return selectCmp(v, p.Op, x, sel, out)
	}
	if !p.Eval(storage.IntValue(0)) {
		return 0
	}
	return copy(out, sel)
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

// selectRange32 keeps the positions of sel whose 4-byte value lies in
// [lo, hi]: the platform's gather kernel takes the positions it can
// (select_amd64.go), the Go loop the rest. The other widths run the Go
// loop alone.
func selectRange32(v []int32, lo, hi int64, sel, out []int32) int {
	k, i := selectRangeSelSIMD(v, lo, hi, sel, out)
	return selectRangeGo(v, i, k, lo, hi, sel, out)
}

// selectRangeGo keeps the positions of sel from sel[i] on whose value
// lies in [lo, hi], writing them from out[k] on, with one unsigned
// compare: v-lo wraps past hi-lo exactly when v is outside. It returns
// the new count. From (0, 0) it is the reference the vector kernel is
// tested against.
func selectRangeGo[T storage.Int](v []T, i, k int, lo, hi int64, sel, out []int32) int {
	span := uint64(hi - lo)
	for _, x := range sel[i:] {
		out[k] = x
		k += b2i(uint64(int64(v[x])-lo) <= span)
	}
	return k
}

// selectRangeDense is selectRange over every position of v: the
// platform's vector kernel takes the rows it can (select_amd64.go), the
// Go loop the rest.
func selectRangeDense[T storage.Int](v []T, lo, hi int64, out []int32) int {
	k, i := selectRangeSIMD(v, lo, hi, out)
	return selectRangeDenseGo(v, i, k, lo, hi, out)
}

// selectRangeDenseGo is selectRange over the positions of v from i on,
// writing survivors from out[k] on; it returns the new count. From (0, 0)
// it is the reference the vector kernel is tested against.
func selectRangeDenseGo[T storage.Int](v []T, i, k int, lo, hi int64, out []int32) int {
	span := uint64(hi - lo)
	for ; i < len(v); i++ {
		out[k] = int32(i)
		k += b2i(uint64(int64(v[i])-lo) <= span)
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
