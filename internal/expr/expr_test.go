package expr

import (
	"math"
	"testing"
	"testing/quick"

	"nodb/internal/storage"
)

func TestPredEval(t *testing.T) {
	cases := []struct {
		p    Pred
		v    storage.Value
		want bool
	}{
		{Pred{Op: Lt, Val: storage.IntValue(10)}, storage.IntValue(5), true},
		{Pred{Op: Lt, Val: storage.IntValue(10)}, storage.IntValue(10), false},
		{Pred{Op: Le, Val: storage.IntValue(10)}, storage.IntValue(10), true},
		{Pred{Op: Gt, Val: storage.IntValue(10)}, storage.IntValue(11), true},
		{Pred{Op: Ge, Val: storage.IntValue(10)}, storage.IntValue(10), true},
		{Pred{Op: Eq, Val: storage.IntValue(10)}, storage.IntValue(10), true},
		{Pred{Op: Eq, Val: storage.IntValue(10)}, storage.IntValue(9), false},
		{Pred{Op: Ne, Val: storage.IntValue(10)}, storage.IntValue(9), true},
		{Pred{Between: true, Val: storage.IntValue(5), Val2: storage.IntValue(8)}, storage.IntValue(5), true},
		{Pred{Between: true, Val: storage.IntValue(5), Val2: storage.IntValue(8)}, storage.IntValue(8), true},
		{Pred{Between: true, Val: storage.IntValue(5), Val2: storage.IntValue(8)}, storage.IntValue(9), false},
		{Pred{Op: Lt, Val: storage.FloatValue(2.5)}, storage.IntValue(2), true},
		{Pred{Op: Gt, Val: storage.StringValue("abc")}, storage.StringValue("abd"), true},
	}
	for _, c := range cases {
		if got := c.p.Eval(c.v); got != c.want {
			t.Errorf("(%s).Eval(%v) = %v, want %v", c.p, c.v, got, c.want)
		}
	}
}

func TestConjunctionEvalRow(t *testing.T) {
	c := Conjunction{Preds: []Pred{
		{Col: 0, Op: Gt, Val: storage.IntValue(10)},
		{Col: 0, Op: Lt, Val: storage.IntValue(20)},
		{Col: 1, Op: Eq, Val: storage.IntValue(5)},
	}}
	row := map[int]int64{0: 15, 1: 5}
	get := func(col int) storage.Value { return storage.IntValue(row[col]) }
	if !c.EvalRow(get) {
		t.Error("row should satisfy conjunction")
	}
	row[0] = 25
	if c.EvalRow(get) {
		t.Error("row should fail upper bound")
	}
}

func TestConjunctionColumns(t *testing.T) {
	c := Conjunction{Preds: []Pred{{Col: 3}, {Col: 1}, {Col: 3}, {Col: 0}}}
	got := c.Columns()
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("Columns = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Columns = %v, want %v", got, want)
		}
	}
	if len(c.OnColumn(3)) != 2 || len(c.OnColumn(9)) != 0 {
		t.Error("OnColumn broken")
	}
}

func TestIntRange(t *testing.T) {
	iv := func(lo, hi int64) [2]int64 { return [2]int64{lo, hi} }
	cases := []struct {
		preds []Pred
		want  [2]int64
		exact bool
	}{
		{[]Pred{{Col: 0, Op: Gt, Val: storage.IntValue(10)}, {Col: 0, Op: Lt, Val: storage.IntValue(20)}}, iv(11, 20), true},
		{[]Pred{{Col: 0, Op: Ge, Val: storage.IntValue(10)}, {Col: 0, Op: Le, Val: storage.IntValue(20)}}, iv(10, 21), true},
		{[]Pred{{Col: 0, Op: Eq, Val: storage.IntValue(7)}}, iv(7, 8), true},
		{[]Pred{{Col: 0, Between: true, Val: storage.IntValue(3), Val2: storage.IntValue(6)}}, iv(3, 7), true},
		{[]Pred{{Col: 0, Op: Ne, Val: storage.IntValue(7)}}, iv(math.MinInt64, math.MaxInt64), false},
		{[]Pred{}, iv(math.MinInt64, math.MaxInt64), true},
		// Contradiction → empty interval.
		{[]Pred{{Col: 0, Op: Gt, Val: storage.IntValue(20)}, {Col: 0, Op: Lt, Val: storage.IntValue(10)}}, iv(21, 21), true},
	}
	for i, c := range cases {
		conj := Conjunction{Preds: c.preds}
		got, exact := conj.IntRange(0)
		if got.Lo != c.want[0] || got.Hi != c.want[1] || exact != c.exact {
			t.Errorf("case %d: IntRange = %v exact=%v, want [%d,%d) exact=%v",
				i, got, exact, c.want[0], c.want[1], c.exact)
		}
	}
}

func TestIntRangeIgnoresOtherColumns(t *testing.T) {
	c := Conjunction{Preds: []Pred{
		{Col: 0, Op: Gt, Val: storage.IntValue(5)},
		{Col: 1, Op: Lt, Val: storage.IntValue(3)},
		{Col: 0, Op: Lt, Val: storage.IntValue(9)},
	}}
	got, exact := c.IntRange(0)
	if got.Lo != 6 || got.Hi != 9 || !exact {
		t.Errorf("IntRange(0) = %v exact=%v", got, exact)
	}
	// Unbounded above, the range admits MaxInt64, which [6, MaxInt64)
	// leaves out: the range is reported, but not as exact.
	c.Preds = c.Preds[:2]
	got, exact = c.IntRange(0)
	if got.Lo != 6 || got.Hi != math.MaxInt64 || exact {
		t.Errorf("IntRange(0) = %v exact=%v, want [6, MaxInt64) inexact", got, exact)
	}
}

// TestIntRangeAtInt64Edges: bounds at MinInt64/MaxInt64 give an empty range
// instead of a wrapped one, and no range that admits MaxInt64 is exact.
func TestIntRangeAtInt64Edges(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	p := func(op CmpOp, v int64) Pred { return Pred{Col: 0, Op: op, Val: storage.IntValue(v)} }
	between := func(a, b int64) Pred {
		return Pred{Col: 0, Between: true, Val: storage.IntValue(a), Val2: storage.IntValue(b)}
	}
	cases := []struct {
		name  string
		preds []Pred
		want  [2]int64
		exact bool
		empty bool
	}{
		// The closed range [MaxInt64, MaxInt64] saturates to [MaxInt64,
		// MaxInt64): inexact, so no caller takes it for the empty set.
		{"eq max", []Pred{p(Eq, hi)}, [2]int64{hi, hi}, false, false},
		{"ge max", []Pred{p(Ge, hi)}, [2]int64{hi, hi}, false, false},
		{"gt max", []Pred{p(Gt, hi)}, [2]int64{}, true, true},
		{"lt min", []Pred{p(Lt, lo)}, [2]int64{}, true, true},
		{"le min", []Pred{p(Le, lo)}, [2]int64{lo, lo + 1}, true, false},
		{"ge 5", []Pred{p(Ge, 5)}, [2]int64{5, hi}, false, false},
		{"lt max", []Pred{p(Lt, hi)}, [2]int64{lo, hi}, true, false},
		{"le max-1", []Pred{p(Le, hi-1)}, [2]int64{lo, hi}, true, false},
		{"between to max", []Pred{between(0, hi)}, [2]int64{0, hi}, false, false},
		{"reversed between", []Pred{between(3, 1)}, [2]int64{}, true, true},
		{"gt 5 and lt 3", []Pred{p(Gt, 5), p(Lt, 3)}, [2]int64{}, true, true},
		{"eq and ne", []Pred{p(Eq, 4), p(Ne, 4)}, [2]int64{4, 5}, false, false},
	}
	for _, c := range cases {
		got, exact := Conjunction{Preds: c.preds}.IntRange(0)
		if c.empty {
			if !got.Empty() || exact != c.exact {
				t.Errorf("%s: IntRange = %v exact=%v, want empty exact=%v", c.name, got, exact, c.exact)
			}
		} else if exact != c.exact || got.Lo != c.want[0] || got.Hi != c.want[1] {
			t.Errorf("%s: IntRange = %v exact=%v, want [%d,%d) exact=%v",
				c.name, got, exact, c.want[0], c.want[1], c.exact)
		}
		// Soundness on the edge values themselves: an exact range holds a
		// value iff the predicates do.
		if !exact {
			continue
		}
		for _, v := range []int64{lo, lo + 1, -1, 0, 1, 4, 5, hi - 1, hi} {
			want := Conjunction{Preds: c.preds}.EvalRow(func(int) storage.Value { return storage.IntValue(v) })
			if got.Contains(v) != want {
				t.Errorf("%s: Contains(%d) = %v, predicates say %v", c.name, v, got.Contains(v), want)
			}
		}
	}
}

// Property: for int values, membership in IntRange(col) equals satisfying
// all predicates on col (when exact).
func TestQuickIntRangeSound(t *testing.T) {
	f := func(v int64, b1, b2 int64, ops [2]uint8) bool {
		preds := []Pred{
			{Col: 0, Op: CmpOp(ops[0] % 5), Val: storage.IntValue(b1 % 1000)}, // skip Ne
			{Col: 0, Op: CmpOp(ops[1] % 5), Val: storage.IntValue(b2 % 1000)},
		}
		c := Conjunction{Preds: preds}
		r, exact := c.IntRange(0)
		if !exact {
			return true
		}
		vv := v % 2000
		want := preds[0].Eval(storage.IntValue(vv)) && preds[1].Eval(storage.IntValue(vv))
		return r.Contains(vv) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestSatAdd1(t *testing.T) {
	if satAdd1(math.MaxInt64) != math.MaxInt64 {
		t.Error("satAdd1 should saturate")
	}
	if satAdd1(5) != 6 {
		t.Error("satAdd1(5) != 6")
	}
}

func TestStrings(t *testing.T) {
	p := Pred{Col: 2, Op: Le, Val: storage.IntValue(9)}
	if p.String() != "col2 <= 9" {
		t.Errorf("Pred.String = %q", p.String())
	}
	b := Pred{Col: 1, Between: true, Val: storage.IntValue(1), Val2: storage.IntValue(2)}
	if b.String() != "col1 BETWEEN 1 AND 2" {
		t.Errorf("between String = %q", b.String())
	}
	c := Conjunction{Preds: []Pred{p, b}}
	if c.String() != "col2 <= 9 AND col1 BETWEEN 1 AND 2" {
		t.Errorf("Conjunction.String = %q", c.String())
	}
	for op, s := range map[CmpOp]string{Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Eq: "=", Ne: "<>"} {
		if op.String() != s {
			t.Errorf("op %d String = %q, want %q", op, op.String(), s)
		}
	}
}

func TestIntRangeNonIntLiteralInexact(t *testing.T) {
	c := Conjunction{Preds: []Pred{{Col: 0, Op: Gt, Val: storage.FloatValue(2.5)}}}
	r, exact := c.IntRange(0)
	if exact {
		t.Error("float literal should make the range inexact")
	}
	if r.Lo != math.MinInt64 || r.Hi != math.MaxInt64 {
		t.Errorf("inexact range should stay full: %v", r)
	}
}
