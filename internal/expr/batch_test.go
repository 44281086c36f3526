package expr

import (
	"math"
	"math/rand"
	"testing"

	"nodb/internal/schema"
	"nodb/internal/storage"
)

// TestFilterColumnMatchesEval differentially pins the vectorized loops to
// the boxed per-row Eval across every operator, column type and literal
// type combination (including mixed-type literals that take the fallback),
// through both the selection-vector and the dense entry of a compiled
// single-predicate filter.
func TestFilterColumnMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 257

	ints := storage.NewDense(schema.Int64, n)
	floats := storage.NewDense(schema.Float64, n)
	strs := storage.NewDense(schema.String, n)
	alpha := []string{"a", "ab", "b", "ba", "c", "z", ""}
	for i := 0; i < n; i++ {
		ints.Append(storage.IntValue(rng.Int63n(21) - 10))
		floats.Append(storage.FloatValue(float64(rng.Int63n(41)-20) / 4))
		strs.Append(storage.StringValue(alpha[rng.Intn(len(alpha))]))
	}

	lits := []storage.Value{
		storage.IntValue(0), storage.IntValue(-3), storage.IntValue(10),
		storage.IntValue(math.MinInt64), storage.IntValue(math.MaxInt64),
		storage.FloatValue(1.25), storage.FloatValue(-0.5),
		storage.StringValue("b"), storage.StringValue(""),
	}
	cols := []*storage.DenseColumn{ints, floats, strs}
	ops := []CmpOp{Lt, Le, Gt, Ge, Eq, Ne}

	check := func(p Pred, col *storage.DenseColumn) {
		t.Helper()
		sel := make([]int32, n)
		for i := range sel {
			sel[i] = int32(i)
		}
		var want []int32
		for i := 0; i < n; i++ {
			if p.Eval(col.Value(i)) {
				want = append(want, int32(i))
			}
		}
		conj := Conjunction{Preds: []Pred{p}}
		get := func(int) *storage.DenseColumn { return col }
		f := conj.Compile(func(int) schema.Type { return col.Typ })
		for mode, got := range map[string][]int32{
			"sel":   conj.FilterBatch(get, sel),
			"dense": f.Apply(get, n, nil, make([]int32, n)),
		} {
			if len(got) != len(want) {
				t.Fatalf("%s: %v over %v column: %d survivors, want %d", mode, p, col.Typ, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: %v over %v column: survivor %d = %d, want %d", mode, p, col.Typ, i, got[i], want[i])
				}
			}
		}
	}

	for _, col := range cols {
		for _, lit := range lits {
			for _, op := range ops {
				check(Pred{Col: 0, Op: op, Val: lit}, col)
			}
			for _, lit2 := range lits {
				check(Pred{Col: 0, Val: lit, Val2: lit2, Between: true}, col)
			}
		}
	}
}

func TestFilterBatchConjunction(t *testing.T) {
	const n = 100
	a := storage.NewDense(schema.Int64, n)
	b := storage.NewDense(schema.String, n)
	for i := 0; i < n; i++ {
		a.Append(storage.IntValue(int64(i)))
		if i%2 == 0 {
			b.Append(storage.StringValue("even"))
		} else {
			b.Append(storage.StringValue("odd"))
		}
	}
	c := Conjunction{Preds: []Pred{
		{Col: 0, Op: Ge, Val: storage.IntValue(10)},
		{Col: 0, Op: Lt, Val: storage.IntValue(20)},
		{Col: 1, Op: Eq, Val: storage.StringValue("even")},
	}}
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	get := func(col int) *storage.DenseColumn {
		if col == 0 {
			return a
		}
		return b
	}
	out := c.FilterBatch(get, sel)
	if len(out) != 5 {
		t.Fatalf("survivors = %v, want the 5 even rows in [10,20)", out)
	}
	for i, idx := range out {
		if want := int32(10 + 2*i); idx != want {
			t.Fatalf("survivor %d = %d, want %d", i, idx, want)
		}
	}
	// An empty conjunction keeps everything.
	sel2 := []int32{3, 7}
	if out := (Conjunction{}).FilterBatch(get, sel2); len(out) != 2 {
		t.Fatalf("empty conjunction filtered rows: %v", out)
	}
}

// TestFoldedFilterMatchesEvalRow pins the folded interval to row-at-a-time
// evaluation on random conjunctions of int predicates, bounds at the edges
// of int64 included, over both entries of Apply.
func TestFoldedFilterMatchesEvalRow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 300
	a := storage.NewDense(schema.Int64, n)
	b := storage.NewDense(schema.Int64, n)
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	pick := func() int64 {
		if rng.Intn(3) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.Int63n(41) - 20
	}
	for i := 0; i < n; i++ {
		a.Append(storage.IntValue(pick()))
		b.Append(storage.IntValue(pick()))
	}
	cols := []*storage.DenseColumn{a, b}
	get := func(col int) *storage.DenseColumn { return cols[col] }
	for iter := 0; iter < 2000; iter++ {
		var c Conjunction
		for j := rng.Intn(4) + 1; j > 0; j-- {
			p := Pred{Col: rng.Intn(2), Op: CmpOp(rng.Intn(6)), Val: storage.IntValue(pick())}
			if rng.Intn(5) == 0 {
				p.Between, p.Val2 = true, storage.IntValue(pick())
			}
			c.Preds = append(c.Preds, p)
		}
		var want []int32
		for i := 0; i < n; i++ {
			if c.EvalRow(func(col int) storage.Value { return cols[col].Value(i) }) {
				want = append(want, int32(i))
			}
		}
		f := c.Compile(func(int) schema.Type { return schema.Int64 })
		dense := f.Apply(get, n, nil, make([]int32, n))
		sel := make([]int32, n)
		for i := range sel {
			sel[i] = int32(i)
		}
		for mode, got := range map[string][]int32{"dense": dense, "sel": c.FilterBatch(get, sel)} {
			if len(got) != len(want) {
				t.Fatalf("%s: %v: %d survivors, want %d", mode, c, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: %v: survivor %d = %d, want %d", mode, c, i, got[i], want[i])
				}
			}
		}
	}
}

// TestFilterBatchNoAllocs: the stack-compiled conjunction costs no heap
// allocation per call.
func TestFilterBatchNoAllocs(t *testing.T) {
	col := storage.NewDense(schema.Int64, 1024)
	for i := 0; i < 1024; i++ {
		col.Append(storage.IntValue(int64(i)))
	}
	c := Conjunction{Preds: []Pred{
		{Col: 0, Op: Ge, Val: storage.IntValue(100)},
		{Col: 0, Op: Lt, Val: storage.IntValue(900)},
		{Col: 0, Op: Ne, Val: storage.IntValue(500)},
	}}
	get := func(int) *storage.DenseColumn { return col }
	sel := make([]int32, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range sel {
			sel[i] = int32(i)
		}
		if got := len(c.FilterBatch(get, sel)); got != 799 {
			t.Fatalf("survivors = %d, want 799", got)
		}
	})
	if allocs != 0 {
		t.Fatalf("FilterBatch allocates %.1f times per call, want 0", allocs)
	}
}
