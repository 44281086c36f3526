package storage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nodb/internal/schema"
)

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntValue(1), IntValue(2), -1},
		{IntValue(2), IntValue(2), 0},
		{IntValue(3), IntValue(2), 1},
		{FloatValue(1.5), IntValue(2), -1},
		{IntValue(2), FloatValue(1.5), 1},
		{StringValue("a"), StringValue("b"), -1},
		{StringValue("b"), StringValue("b"), 0},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueString(t *testing.T) {
	if IntValue(42).String() != "42" {
		t.Error("int String")
	}
	if FloatValue(2.5).String() != "2.5" {
		t.Error("float String")
	}
	if StringValue("xyz").String() != "xyz" {
		t.Error("string String")
	}
}

func TestValueAsFloat(t *testing.T) {
	if IntValue(3).AsFloat() != 3.0 || FloatValue(2.5).AsFloat() != 2.5 || StringValue("x").AsFloat() != 0 {
		t.Error("AsFloat misbehaves")
	}
}

func TestDenseColumnTypes(t *testing.T) {
	for _, typ := range []schema.Type{schema.Int64, schema.Float64, schema.String} {
		c := NewDense(typ, 4)
		if c.Len() != 0 {
			t.Fatalf("%v: fresh column not empty", typ)
		}
		vals := []Value{IntValue(1), IntValue(2)}
		if typ == schema.Float64 {
			vals = []Value{FloatValue(1.5), FloatValue(2.5)}
		}
		if typ == schema.String {
			vals = []Value{StringValue("a"), StringValue("b")}
		}
		for _, v := range vals {
			c.Append(v)
		}
		if c.Len() != 2 {
			t.Fatalf("%v: Len = %d", typ, c.Len())
		}
		if c.Value(1).Compare(vals[1]) != 0 {
			t.Errorf("%v: Value(1) = %v, want %v", typ, c.Value(1), vals[1])
		}
		c.Set(0, vals[1])
		if c.Value(0).Compare(vals[1]) != 0 {
			t.Errorf("%v: Set broken", typ)
		}
		if c.MemSize() <= 0 {
			t.Errorf("%v: MemSize = %d", typ, c.MemSize())
		}
	}
}

func TestDenseSized(t *testing.T) {
	c := NewDenseSized(schema.Int64, 10)
	if c.Len() != 10 || c.Value(5).I != 0 {
		t.Error("NewDenseSized should produce zeroed column")
	}
	c.Set(5, IntValue(7))
	if c.Value(5).I != 7 {
		t.Error("Set on sized column broken")
	}
}

func TestSparseAscendingAppend(t *testing.T) {
	s := NewSparse(schema.Int64)
	for i := int64(0); i < 100; i += 2 {
		s.Add(i, IntValue(i*10))
	}
	if s.Len() != 50 {
		t.Fatalf("Len = %d, want 50", s.Len())
	}
	if !s.Has(42) || s.Has(43) {
		t.Error("Has broken")
	}
	v, ok := s.Get(42)
	if !ok || v.I != 420 {
		t.Errorf("Get(42) = %v, %v", v, ok)
	}
	if _, ok := s.Get(41); ok {
		t.Error("Get of absent row should fail")
	}
}

func TestSparseOutOfOrderInsert(t *testing.T) {
	s := NewSparse(schema.Int64)
	order := []int64{50, 10, 90, 30, 70, 20}
	for _, r := range order {
		s.Add(r, IntValue(r))
	}
	rows := s.Rows()
	for i := 1; i < len(rows); i++ {
		if rows[i-1] >= rows[i] {
			t.Fatalf("rows not sorted: %v", rows)
		}
	}
	for _, r := range order {
		v, ok := s.Get(r)
		if !ok || v.I != r {
			t.Errorf("Get(%d) = %v, %v", r, v, ok)
		}
	}
}

func TestSparseOverwrite(t *testing.T) {
	s := NewSparse(schema.Int64)
	s.Add(5, IntValue(1))
	s.Add(5, IntValue(2))
	if s.Len() != 1 {
		t.Fatalf("duplicate Add should overwrite, Len = %d", s.Len())
	}
	v, _ := s.Get(5)
	if v.I != 2 {
		t.Errorf("overwrite failed: %v", v)
	}
}

func TestSparseAt(t *testing.T) {
	s := NewSparse(schema.Float64)
	s.Add(3, FloatValue(1.5))
	s.Add(7, FloatValue(2.5))
	r, v := s.At(1)
	if r != 7 || v.F != 2.5 {
		t.Errorf("At(1) = %d, %v", r, v)
	}
	if s.FloatAt(0) != 1.5 {
		t.Error("FloatAt broken")
	}
}

func TestSparseStringType(t *testing.T) {
	s := NewSparse(schema.String)
	s.Add(1, StringValue("hello"))
	s.Add(0, StringValue("world"))
	if s.StrAt(0) != "world" || s.StrAt(1) != "hello" {
		t.Error("string sparse column ordering broken")
	}
	if s.MemSize() <= 0 {
		t.Error("MemSize should count string bytes")
	}
}

func TestSparseToDense(t *testing.T) {
	s := NewSparse(schema.Int64)
	s.Add(1, IntValue(11))
	s.Add(3, IntValue(33))
	d := s.ToDense(5)
	if d.Len() != 5 {
		t.Fatalf("dense Len = %d, want 5", d.Len())
	}
	want := []int64{0, 11, 0, 33, 0}
	for i, w := range want {
		if d.Ints[i] != w {
			t.Errorf("dense[%d] = %d, want %d", i, d.Ints[i], w)
		}
	}
}

// Property: a SparseColumn behaves like a map[int64]int64 with sorted keys.
func TestQuickSparseLikeMap(t *testing.T) {
	f := func(ops []int16) bool {
		s := NewSparse(schema.Int64)
		ref := map[int64]int64{}
		for i, o := range ops {
			row := int64(o % 128)
			if row < 0 {
				row = -row
			}
			v := int64(i)
			s.Add(row, IntValue(v))
			ref[row] = v
		}
		if s.Len() != len(ref) {
			return false
		}
		for r, v := range ref {
			got, ok := s.Get(r)
			if !ok || got.I != v {
				return false
			}
		}
		rows := s.Rows()
		for i := 1; i < len(rows); i++ {
			if rows[i-1] >= rows[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSparseAscendingAdd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := NewSparse(schema.Int64)
		for j := int64(0); j < 10000; j++ {
			s.Add(j, IntValue(j))
		}
	}
}

func BenchmarkSparseGet(b *testing.B) {
	s := NewSparse(schema.Int64)
	for j := int64(0); j < 100000; j += 2 {
		s.Add(j, IntValue(j))
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(rng.Int63n(100000))
	}
}

// TestSparseAddRunMerge checks the single-pass bulk merge against a
// per-row reference: interleaved runs, overwrites, extension, and enough
// volume that a quadratic regression would be obvious in CI.
func TestSparseAddRunMerge(t *testing.T) {
	ref := map[int64]int64{}
	sp := NewSparse(schema.Int64)
	apply := func(rows []int64, base int64) {
		sp.AddRun(rows, func(i int) Value { return IntValue(base + rows[i]) })
		for _, r := range rows {
			ref[r] = base + r
		}
	}
	// Selective first load: every third row.
	var sel []int64
	for r := int64(0); r < 120_000; r += 3 {
		sel = append(sel, r)
	}
	apply(sel, 1_000_000)
	// Wide second load: every row, newer values must win on overlap.
	all := make([]int64, 120_000)
	for i := range all {
		all[i] = int64(i)
	}
	apply(all, 2_000_000)
	// A trailing extension run (fast path).
	apply([]int64{120_000, 120_001}, 0)

	if sp.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", sp.Len(), len(ref))
	}
	prev := int64(-1)
	for i := 0; i < sp.Len(); i++ {
		row, v := sp.At(i)
		if row <= prev {
			t.Fatalf("rows not ascending/unique at ordinal %d: %d after %d", i, row, prev)
		}
		prev = row
		if want := ref[row]; v.I != want {
			t.Fatalf("row %d = %d, want %d", row, v.I, want)
		}
	}
}
