// Package expr implements bound scalar predicates and conjunctions over
// table columns, plus the interval algebra that turns WHERE clauses into
// per-column value ranges. Those ranges are what the adaptive machinery
// consumes: partial loading pushes them into the tokenizer and the
// adaptive store records them as covered regions.
package expr

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"nodb/internal/intervals"
	"nodb/internal/schema"
	"nodb/internal/storage"
)

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	Lt CmpOp = iota
	Le
	Gt
	Ge
	Eq
	Ne
)

func (op CmpOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "="
	case Ne:
		return "<>"
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

// Pred is one predicate bound to a column index of a single table:
// either `col <op> val`, or `col BETWEEN val AND val2` (inclusive).
type Pred struct {
	Col     int
	Op      CmpOp
	Val     storage.Value
	Val2    storage.Value
	Between bool
}

// Eval reports whether value v satisfies the predicate.
func (p Pred) Eval(v storage.Value) bool {
	if p.Between {
		return v.Compare(p.Val) >= 0 && v.Compare(p.Val2) <= 0
	}
	c := v.Compare(p.Val)
	switch p.Op {
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	default:
		return false
	}
}

func (p Pred) String() string {
	if p.Between {
		return "col" + strconv.Itoa(p.Col) + " BETWEEN " + p.Val.String() + " AND " + p.Val2.String()
	}
	return "col" + strconv.Itoa(p.Col) + " " + p.Op.String() + " " + p.Val.String()
}

// Conjunction is an AND of predicates over one table.
type Conjunction struct {
	Preds []Pred
}

// Columns returns the distinct column indices referenced, ascending.
func (c Conjunction) Columns() []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range c.Preds {
		if !seen[p.Col] {
			seen[p.Col] = true
			out = append(out, p.Col)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// OnColumn returns the predicates that reference col, preserving order.
func (c Conjunction) OnColumn(col int) []Pred {
	var out []Pred
	for _, p := range c.Preds {
		if p.Col == col {
			out = append(out, p)
		}
	}
	return out
}

// EvalRow evaluates the conjunction for one row; get returns the row's
// value for a column index.
func (c Conjunction) EvalRow(get func(col int) storage.Value) bool {
	for _, p := range c.Preds {
		if !p.Eval(get(p.Col)) {
			return false
		}
	}
	return true
}

// Empty reports whether there are no predicates.
func (c Conjunction) Empty() bool { return len(c.Preds) == 0 }

func (c Conjunction) String() string {
	parts := make([]string, len(c.Preds))
	for i, p := range c.Preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}

// IntRange computes the half-open int64 interval implied by all predicates
// on column col (assumed of type Int64). The boolean reports whether the
// interval captures the predicates exactly. It is false when a `<>` or a
// non-integer literal (a1 > 2.5) constrains the column: the range is then
// an over-approximation and the caller must still evaluate the residual
// predicates. It is also false when the predicates admit MaxInt64, which no
// half-open int64 interval contains.
//
// With no predicates on the column, the full interval is returned (exact).
func (c Conjunction) IntRange(col int) (intervals.Interval, bool) {
	lo, hi, n, ok := c.foldInt(col)
	exact := n == len(c.OnColumn(col))
	switch {
	case n == 0 && exact:
		return intervals.Interval{Lo: math.MinInt64, Hi: math.MaxInt64}, true
	case !ok:
		return intervals.Interval{Lo: lo, Hi: lo}, exact // canonical empty interval
	}
	return intervals.Interval{Lo: lo, Hi: satAdd1(hi)}, exact && hi != math.MaxInt64
}

// foldInt folds every predicate on col that foldable accepts into one
// closed interval [lo, hi]; n counts the predicates folded. ok is false
// when they contradict each other, including a bound past the int64 range
// (a < MinInt64, a > MaxInt64): the interval is then empty, never wrapped.
func (c Conjunction) foldInt(col int) (lo, hi int64, n int, ok bool) {
	lo, hi, ok = math.MinInt64, math.MaxInt64, true
	for _, p := range c.Preds {
		if p.Col != col || !p.foldable() {
			continue
		}
		n++
		plo, phi := p.Val.I, p.Val.I
		switch {
		case p.Between:
			phi = p.Val2.I
		case p.Op == Lt:
			ok = ok && phi != math.MinInt64
			plo, phi = math.MinInt64, phi-1
		case p.Op == Le:
			plo = math.MinInt64
		case p.Op == Gt:
			ok = ok && plo != math.MaxInt64
			plo, phi = plo+1, math.MaxInt64
		case p.Op == Ge:
			phi = math.MaxInt64
		}
		lo, hi = max(lo, plo), min(hi, phi)
	}
	return lo, hi, n, ok && lo <= hi
}

// foldable reports whether p compares against integer literals with <,
// <=, >, >=, = or BETWEEN: the predicates an int column folds into one
// interval. `<>` and non-integer literals stay separate.
func (p Pred) foldable() bool {
	if p.Between {
		return p.Val.Typ == schema.Int64 && p.Val2.Typ == schema.Int64
	}
	return p.Op != Ne && p.Val.Typ == schema.Int64
}

// satAdd1 adds one, saturating at MaxInt64.
func satAdd1(v int64) int64 {
	if v == math.MaxInt64 {
		return v
	}
	return v + 1
}
