package synopsis

import (
	"fmt"
	"testing"

	"nodb/internal/expr"
	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/storage"
)

// layout2 builds a two-portion layout: rows [0,100) in bytes [0,1000),
// rows [100,250) in bytes [1000,2500).
func layout2() []scan.PortionInfo {
	return []scan.PortionInfo{
		{Index: 0, Off: 0, End: 1000, FirstRow: 0, Rows: 100},
		{Index: 1, Off: 1000, End: 2500, FirstRow: 100, Rows: 150},
	}
}

// observeInts feeds n int values v(i) for column position idx.
func observeInts(pc *PortionAcc, idx, n int, v func(i int) int64) {
	for i := 0; i < n; i++ {
		pc.Observe(idx, storage.IntValue(v(i)))
	}
}

func intConj(col int, op expr.CmpOp, val int64) expr.Conjunction {
	return expr.Conjunction{Preds: []expr.Pred{{Col: col, Op: op, Val: storage.IntValue(val)}}}
}

func TestLayoutAdoptionAndCompleteness(t *testing.T) {
	s := New()
	if got := s.Layout(); got != nil {
		t.Fatalf("empty synopsis Layout = %v, want nil", got)
	}
	// A lazily-counted single portion is incomplete until a commit
	// supplies its row count.
	s.AdoptLayout([]scan.PortionInfo{{Index: 0, Off: 0, End: 500, FirstRow: 0, Rows: -1}})
	if got := s.Layout(); got != nil {
		t.Fatalf("incomplete Layout = %v, want nil", got)
	}
	c := NewCollector(s, []int{0}, []schema.Type{schema.Int64})
	pc := c.Begin(scan.PortionInfo{Index: 0, Off: 0, End: 500, FirstRow: 0, Rows: -1})
	observeInts(pc, 0, 10, func(i int) int64 { return int64(i) })
	c.Commit(scan.PortionInfo{Index: 0, Off: 0, End: 500, FirstRow: 0, Rows: -1}, 10)
	l := s.Layout()
	if len(l) != 1 || l[0].Rows != 10 {
		t.Fatalf("Layout after commit = %+v, want one portion of 10 rows", l)
	}
	if n, ok := s.TotalRows(); !ok || n != 10 {
		t.Fatalf("TotalRows = %d,%v want 10,true", n, ok)
	}
}

func TestPrunerSkipsOnlyExcludedPortions(t *testing.T) {
	s := New()
	s.AdoptLayout(layout2())
	c := NewCollector(s, []int{2}, []schema.Type{schema.Int64})

	p0, p1 := layout2()[0], layout2()[1]
	a0 := c.Begin(p0)
	observeInts(a0, 0, 100, func(i int) int64 { return int64(i) }) // [0,99]
	c.Commit(p0, 100)
	a1 := c.Begin(p1)
	observeInts(a1, 0, 150, func(i int) int64 { return int64(100 + i) }) // [100,249]
	c.Commit(p1, 150)

	cases := []struct {
		conj         expr.Conjunction
		skip0, skip1 bool
	}{
		{intConj(2, expr.Gt, 99), true, false},
		{intConj(2, expr.Ge, 99), false, false},
		{intConj(2, expr.Lt, 100), false, true},
		{intConj(2, expr.Le, 99), false, true},
		{intConj(2, expr.Eq, 300), true, true},
		{intConj(2, expr.Eq, 150), true, false},
		{intConj(2, expr.Ne, 5), false, false},
		{expr.Conjunction{Preds: []expr.Pred{{Col: 2, Between: true, Val: storage.IntValue(40), Val2: storage.IntValue(60)}}}, false, true},
		// A float literal against int bounds still prunes.
		{intConj(2, expr.Gt, 0), false, false},
		{expr.Conjunction{Preds: []expr.Pred{{Col: 2, Op: expr.Gt, Val: storage.FloatValue(99.5)}}}, true, false},
		// Predicates on an unbounded column never prune.
		{intConj(7, expr.Eq, -1), false, false},
	}
	for i, tc := range cases {
		pr := s.Pruner(tc.conj)
		if pr == nil {
			t.Fatalf("case %d: nil pruner", i)
		}
		if got := pr.Skip(p0); got != tc.skip0 {
			t.Errorf("case %d (%s): Skip(p0) = %v, want %v", i, tc.conj, got, tc.skip0)
		}
		if got := pr.Skip(p1); got != tc.skip1 {
			t.Errorf("case %d (%s): Skip(p1) = %v, want %v", i, tc.conj, got, tc.skip1)
		}
	}
}

func TestPartialCoverageEarnsNoBounds(t *testing.T) {
	s := New()
	s.AdoptLayout(layout2())
	c := NewCollector(s, []int{0}, []schema.Type{schema.Int64})
	p0 := layout2()[0]
	a := c.Begin(p0)
	observeInts(a, 0, 99, func(i int) int64 { return int64(i) }) // one row short
	c.Commit(p0, 100)
	if pr := s.Pruner(intConj(0, expr.Eq, -1)); pr.Skip(p0) {
		t.Fatal("partially observed column must not prune")
	}
	if _, bounds := s.Stats(); bounds != 0 {
		t.Fatalf("bounds = %d, want 0 for partial coverage", bounds)
	}
}

func TestNaNFloatPoisonsBounds(t *testing.T) {
	s := New()
	s.AdoptLayout(layout2())
	c := NewCollector(s, []int{0}, []schema.Type{schema.Float64})
	p0 := layout2()[0]
	a := c.Begin(p0)
	nan := storage.FloatValue(0)
	nan.F = nan.F / nan.F // NaN without tripping vet
	for i := 0; i < 100; i++ {
		if i == 50 {
			a.Observe(0, nan)
			continue
		}
		a.Observe(0, storage.FloatValue(float64(i)))
	}
	c.Commit(p0, 100)
	conj := expr.Conjunction{Preds: []expr.Pred{{Col: 0, Op: expr.Gt, Val: storage.FloatValue(1e9)}}}
	if pr := s.Pruner(conj); pr.Skip(p0) {
		t.Fatal("NaN-containing column must not contribute bounds")
	}
}

func TestStringPrefixPruning(t *testing.T) {
	long := func(c byte) string {
		b := make([]byte, StringPrefixLen+4)
		for i := range b {
			b[i] = c
		}
		return string(b)
	}
	cases := []struct {
		name     string
		min, max string
		pred     expr.Pred
		skip     bool
	}{
		{"eq-below-min", "bbb", "ddd", expr.Pred{Op: expr.Eq, Val: storage.StringValue("aaa")}, true},
		{"eq-above-max", "bbb", "ddd", expr.Pred{Op: expr.Eq, Val: storage.StringValue("eee")}, true},
		{"eq-inside", "bbb", "ddd", expr.Pred{Op: expr.Eq, Val: storage.StringValue("ccc")}, false},
		{"lt-at-min", "bbb", "ddd", expr.Pred{Op: expr.Lt, Val: storage.StringValue("bbb")}, true},
		{"gt-at-max", "bbb", "ddd", expr.Pred{Op: expr.Gt, Val: storage.StringValue("ddd")}, true},
		{"between-disjoint", "bbb", "ddd", expr.Pred{Between: true, Val: storage.StringValue("x"), Val2: storage.StringValue("z")}, true},
		{"between-overlap", "bbb", "ddd", expr.Pred{Between: true, Val: storage.StringValue("c"), Val2: storage.StringValue("z")}, false},
		// Truncated max: values share the stored prefix but extend past
		// it, so only predicates at or past prefixSuccessor may skip.
		{"trunc-eq-just-above-prefix", "aaa", long('m'), expr.Pred{Op: expr.Eq, Val: storage.StringValue(long('m') + "zzz")}, false},
		{"trunc-eq-far-above", "aaa", long('m'), expr.Pred{Op: expr.Eq, Val: storage.StringValue("zzz")}, true},
	}
	p0 := layout2()[0]
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			s.AdoptLayout(layout2())
			c := NewCollector(s, []int{0}, []schema.Type{schema.String})
			a := c.Begin(p0)
			a.Observe(0, storage.StringValue(tc.min))
			for i := 0; i < 98; i++ {
				a.Observe(0, storage.StringValue(tc.min))
			}
			a.Observe(0, storage.StringValue(tc.max))
			c.Commit(p0, 100)
			tc.pred.Col = 0
			pr := s.Pruner(expr.Conjunction{Preds: []expr.Pred{tc.pred}})
			if got := pr.Skip(p0); got != tc.skip {
				t.Errorf("Skip = %v, want %v", got, tc.skip)
			}
		})
	}
}

func TestDropInvalidatesInFlightCollector(t *testing.T) {
	s := New()
	s.AdoptLayout(layout2())
	c := NewCollector(s, []int{0}, []schema.Type{schema.Int64})
	p0 := layout2()[0]
	a := c.Begin(p0)
	observeInts(a, 0, 100, func(i int) int64 { return int64(i) })
	s.Drop() // file edited mid-scan
	s.AdoptLayout(layout2())
	c.Commit(p0, 100) // stale generation: must be discarded
	if _, bounds := s.Stats(); bounds != 0 {
		t.Fatalf("stale commit landed: %d bounds", bounds)
	}
	if s.MemSize() == 0 {
		t.Fatal("re-adopted layout should account bytes")
	}
}

func TestExportImportRoundTrip(t *testing.T) {
	sch := &schema.Schema{Columns: []schema.Column{{Name: "a1", Type: schema.Int64}, {Name: "a2", Type: schema.String}}}
	s := New()
	s.AdoptLayout(layout2())
	c := NewCollector(s, []int{0, 1}, []schema.Type{schema.Int64, schema.String})
	for pi, p := range layout2() {
		a := c.Begin(p)
		for i := int64(0); i < p.Rows; i++ {
			a.Observe(0, storage.IntValue(p.FirstRow+i))
			a.Observe(1, storage.StringValue(fmt.Sprintf("s%06d", p.FirstRow+i)))
		}
		c.Commit(p, p.Rows)
		_ = pi
	}
	exported := s.Export()
	if len(exported) != 2 {
		t.Fatalf("Export = %d portions, want 2", len(exported))
	}

	restored := New()
	restored.Import(exported, sch)
	p2, b2 := restored.Stats()
	if p2 != 2 || b2 != 4 {
		t.Fatalf("restored Stats = %d portions %d bounds, want 2 and 4", p2, b2)
	}
	// The restored synopsis prunes identically.
	pr := restored.Pruner(intConj(0, expr.Gt, 240))
	if !pr.Skip(layout2()[0]) || pr.Skip(layout2()[1]) {
		t.Fatal("restored pruner decisions differ")
	}

	// Corrupt shapes are rejected wholesale.
	bad := New()
	mangled := append([]PortionState(nil), exported...)
	mangled[1].Info.FirstRow = 7
	bad.Import(mangled, sch)
	if p, _ := bad.Stats(); p != 0 {
		t.Fatal("inconsistent import accepted")
	}
	badType := New()
	mangled2 := append([]PortionState(nil), exported...)
	mangled2[0].Cols = append([]ColBounds(nil), mangled2[0].Cols...)
	mangled2[0].Cols[0].Col = 99
	badType.Import(mangled2, sch)
	if p, _ := badType.Stats(); p != 0 {
		t.Fatal("out-of-range column import accepted")
	}
}

func TestPrunerNilAndEmptyCases(t *testing.T) {
	var nilSyn *Synopsis
	if pr := nilSyn.Pruner(intConj(0, expr.Eq, 1)); pr != nil {
		t.Fatal("nil synopsis should yield nil pruner")
	}
	s := New()
	if pr := s.Pruner(expr.Conjunction{}); pr != nil {
		t.Fatal("empty conjunction should yield nil pruner")
	}
	var pr *Pruner
	if pr.Skip(scan.PortionInfo{}) || pr.Skipped() != 0 {
		t.Fatal("nil pruner must be inert")
	}
	var pc *PortionAcc
	pc.Observe(0, storage.IntValue(1)) // must not panic
	var nc *Collector
	nc.Begin(scan.PortionInfo{})
	nc.Commit(scan.PortionInfo{}, 1)
	nilSyn.Drop()
	nilSyn.AdoptLayout(layout2())
	if n, ok := nilSyn.TotalRows(); ok || n != 0 {
		t.Fatal("nil synopsis TotalRows should be unknown")
	}
}

// TestAdoptLayoutGenerationGuard: a collector created before a Drop must
// not install its (stale) layout afterwards — neither directly nor by
// re-reading Layout.
func TestAdoptLayoutGenerationGuard(t *testing.T) {
	s := New()
	c := NewCollector(s, []int{0}, []schema.Type{schema.Int64})
	s.Drop() // file edited between opening the scan and adopting
	c.AdoptLayout(layout2())
	if p, _ := s.Stats(); p != 0 {
		t.Fatalf("stale layout adopted: %d portions", p)
	}
	s.AdoptLayout(layout2()) // a fresh adoption at the current gen works
	if c.Layout() != nil {
		t.Fatal("stale collector read the new generation's layout")
	}
	c2 := NewCollector(s, []int{0}, []schema.Type{schema.Int64})
	if got := c2.Layout(); len(got) != 2 {
		t.Fatalf("fresh collector Layout = %v, want 2 portions", got)
	}
}
