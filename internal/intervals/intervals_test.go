package intervals

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{Lo: 2, Hi: 5}
	if iv.Empty() {
		t.Fatal("non-empty interval reported empty")
	}
	if got := iv.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if !iv.Contains(2) || !iv.Contains(4) {
		t.Error("Contains should include Lo and Hi-1")
	}
	if iv.Contains(5) {
		t.Error("Contains should exclude Hi (half-open)")
	}
	if (Interval{Lo: 3, Hi: 3}).Len() != 0 {
		t.Error("empty interval should have zero length")
	}
	if (Interval{Lo: 5, Hi: 2}).Len() != 0 {
		t.Error("inverted interval should have zero length")
	}
}

func TestIntervalOverlapIntersect(t *testing.T) {
	cases := []struct {
		a, b    Interval
		overlap bool
		inter   Interval
	}{
		{Interval{0, 10}, Interval{5, 15}, true, Interval{5, 10}},
		{Interval{0, 10}, Interval{10, 20}, false, Interval{10, 10}},
		{Interval{0, 10}, Interval{2, 3}, true, Interval{2, 3}},
		{Interval{5, 5}, Interval{0, 10}, false, Interval{5, 5}},
		{Interval{0, 1}, Interval{1, 2}, false, Interval{1, 1}},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.overlap {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", c.a, c.b, got, c.overlap)
		}
		if got := c.a.Intersect(c.b); got.Len() != c.inter.Len() || (!got.Empty() && got != c.inter) {
			t.Errorf("%v.Intersect(%v) = %v, want %v", c.a, c.b, got, c.inter)
		}
	}
}

func TestSetAddAndCovers(t *testing.T) {
	var s Set
	s.Add(Interval{10, 20})
	s.Add(Interval{30, 40})
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if !s.Covers(Interval{12, 18}) {
		t.Error("should cover inner interval")
	}
	if s.Covers(Interval{15, 35}) {
		t.Error("should not cover a range spanning the gap")
	}
	if !s.Covers(Interval{10, 20}) {
		t.Error("should cover an exact stored interval")
	}
	if s.Covers(Interval{9, 11}) {
		t.Error("should not cover range starting before the set")
	}
}

func TestSetMergeOverlapping(t *testing.T) {
	var s Set
	s.Add(Interval{10, 20})
	s.Add(Interval{15, 25}) // overlaps
	if s.Len() != 1 {
		t.Fatalf("overlapping intervals should merge, Len = %d", s.Len())
	}
	if !s.Covers(Interval{10, 25}) {
		t.Error("merged interval should cover the union")
	}
	if s.Total() != 15 {
		t.Errorf("Total = %d, want 15", s.Total())
	}
}

func TestSetMergeAdjacent(t *testing.T) {
	var s Set
	s.Add(Interval{0, 5})
	s.Add(Interval{5, 10})
	if s.Len() != 1 {
		t.Fatalf("adjacent intervals should merge, Len = %d", s.Len())
	}
	if !s.Covers(Interval{0, 10}) {
		t.Error("union should be covered after adjacent merge")
	}
}

func TestSetMergeBridging(t *testing.T) {
	var s Set
	s.Add(Interval{0, 5})
	s.Add(Interval{10, 15})
	s.Add(Interval{20, 25})
	s.Add(Interval{3, 22}) // bridges all three
	if s.Len() != 1 {
		t.Fatalf("bridging add should merge all, Len = %d", s.Len())
	}
	if s.Total() != 25 {
		t.Errorf("Total = %d, want 25", s.Total())
	}
}

func TestSetMissing(t *testing.T) {
	var s Set
	s.Add(Interval{10, 20})
	s.Add(Interval{30, 40})

	gaps := s.Missing(Interval{0, 50})
	want := []Interval{{0, 10}, {20, 30}, {40, 50}}
	if !reflect.DeepEqual(gaps, want) {
		t.Errorf("Missing = %v, want %v", gaps, want)
	}

	if got := s.Missing(Interval{12, 18}); len(got) != 0 {
		t.Errorf("Missing of covered range = %v, want none", got)
	}
	if got := s.Missing(Interval{22, 28}); !reflect.DeepEqual(got, []Interval{{22, 28}}) {
		t.Errorf("Missing of uncovered range = %v", got)
	}
	if got := s.Missing(Interval{5, 5}); got != nil {
		t.Errorf("Missing of empty range = %v, want nil", got)
	}
}

func TestSetContainsPoint(t *testing.T) {
	var s Set
	for i := int64(0); i < 100; i += 10 {
		s.Add(Interval{i, i + 5})
	}
	for i := int64(0); i < 100; i++ {
		want := i%10 < 5
		if got := s.Contains(i); got != want {
			t.Fatalf("Contains(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestSetClearAndClone(t *testing.T) {
	var s Set
	s.Add(Interval{1, 4})
	s.Add(Interval{8, 9})
	c := s.Clone()
	s.Clear()
	if s.Len() != 0 || s.Total() != 0 {
		t.Error("Clear should empty the set")
	}
	if c.Len() != 2 || !c.Covers(Interval{1, 4}) {
		t.Error("Clone should be unaffected by Clear")
	}
	c.Add(Interval{4, 8}) // mutate clone; original (cleared) unaffected
	if s.Len() != 0 {
		t.Error("mutating clone must not touch original")
	}
}

func TestSetString(t *testing.T) {
	var s Set
	s.Add(Interval{1, 2})
	s.Add(Interval{5, 7})
	if got, want := s.String(), "{[1,2) [5,7)}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// refSet is a brute-force reference implementation over a bool slice.
type refSet struct{ pts [256]bool }

func (r *refSet) add(iv Interval) {
	for i := max(iv.Lo, 0); i < min(iv.Hi, 256); i++ {
		r.pts[i] = true
	}
}

func (r *refSet) covers(iv Interval) bool {
	if iv.Empty() {
		return true
	}
	for i := iv.Lo; i < iv.Hi; i++ {
		if i < 0 || i >= 256 || !r.pts[i] {
			return false
		}
	}
	return true
}

// TestSetAgainstReference drives randomized operation sequences against a
// brute-force model and checks Covers, Contains, Missing and Total all
// agree.
func TestSetAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var s Set
		var ref refSet
		for op := 0; op < 40; op++ {
			lo := rng.Int63n(250)
			hi := min(lo+rng.Int63n(20), 256)
			s.Add(Interval{lo, hi})
			ref.add(Interval{lo, hi})
		}
		// Total must match the reference count.
		var want int64
		for _, b := range ref.pts {
			if b {
				want++
			}
		}
		if s.Total() != want {
			t.Fatalf("trial %d: Total = %d, want %d (%s)", trial, s.Total(), want, s.String())
		}
		// Random probes.
		for probe := 0; probe < 60; probe++ {
			lo := rng.Int63n(256)
			hi := lo + rng.Int63n(30)
			iv := Interval{lo, min(hi, 256)}
			if got, want := s.Covers(iv), ref.covers(iv); got != want {
				t.Fatalf("trial %d: Covers(%v) = %v, want %v in %s", trial, iv, got, want, s.String())
			}
			x := rng.Int63n(256)
			if got, want := s.Contains(x), ref.pts[x]; got != want {
				t.Fatalf("trial %d: Contains(%d) = %v, want %v", trial, x, got, want)
			}
			// Missing gaps, when re-added, must make the range covered.
			cp := s.Clone()
			for _, g := range cp.Missing(iv) {
				if ref.covers(g) && !g.Empty() {
					t.Fatalf("trial %d: Missing returned covered gap %v", trial, g)
				}
				cp.Add(g)
			}
			if !cp.Covers(iv) {
				t.Fatalf("trial %d: adding Missing(%v) gaps did not cover it", trial, iv)
			}
		}
	}
}

// TestSetAppendAllocFree pins the positional map's hot path: extending the
// last interval by one point, as an in-order append does, allocates
// nothing — with neighbours on both sides of the tree, too.
func TestSetAppendAllocFree(t *testing.T) {
	var s Set
	for i := int64(0); i < 64; i++ {
		s.Add(Interval{i * 10, i*10 + 5})
	}
	hi := int64(1000)
	s.Add(Interval{hi - 1, hi})
	allocs := testing.AllocsPerRun(1000, func() {
		s.Add(Interval{hi, hi + 1})
		hi++
	})
	if allocs != 0 {
		t.Fatalf("in-order append allocates %.1f times per Add, want 0", allocs)
	}
	// Widening a middle interval toward, but short of, its neighbour is
	// in place as well.
	if allocs := testing.AllocsPerRun(3, func() { s.Add(Interval{305, 308}) }); allocs != 0 {
		t.Fatalf("in-place widen allocates %.1f times, want 0", allocs)
	}
	if got, want := s.Len(), 65; got != want {
		t.Fatalf("Len = %d, want %d (%s)", got, want, s.String())
	}
	if !s.Covers(Interval{300, 308}) || s.Covers(Interval{300, 311}) {
		t.Fatalf("widened interval wrong: %s", s.String())
	}
}

// TestSetStaysCanonical: however intervals are widened, the set keeps one
// stored interval per maximal covered run.
func TestSetStaysCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var s Set
		var ref refSet
		for op := 0; op < 60; op++ {
			lo := rng.Int63n(250)
			iv := Interval{lo, min(lo+1+rng.Int63n(6), 256)}
			s.Add(iv)
			ref.add(iv)
		}
		runs := 0
		for x := range ref.pts {
			if ref.pts[x] && (x == 0 || !ref.pts[x-1]) {
				runs++
			}
		}
		if s.Len() != runs {
			t.Fatalf("trial %d: Len = %d, want %d maximal runs (%s)", trial, s.Len(), runs, s.String())
		}
		all := s.All()
		for i := 1; i < len(all); i++ {
			if all[i].Lo <= all[i-1].Hi {
				t.Fatalf("trial %d: %v and %v touch (%s)", trial, all[i-1], all[i], s.String())
			}
		}
	}
}

// TestSetBalance checks the AVL property holds under sequential insertion:
// height must stay logarithmic.
func TestSetBalance(t *testing.T) {
	var s Set
	for i := int64(0); i < 4096; i++ {
		s.Add(Interval{i * 2, i*2 + 1}) // never merge
	}
	if s.Len() != 4096 {
		t.Fatalf("Len = %d, want 4096", s.Len())
	}
	if h := s.Height(); h > 16 { // 1.44*log2(4096) ~ 17; AVL gives ~13
		t.Errorf("tree height %d too large for 4096 nodes", h)
	}
}

// quick-check: union of two sets covers exactly what either covers.
func TestQuickAddCommutes(t *testing.T) {
	f := func(ops []uint16) bool {
		var a, b Set
		ivs := make([]Interval, 0, len(ops))
		for _, o := range ops {
			lo := int64(o % 512)
			hi := lo + int64(o%31)
			ivs = append(ivs, Interval{lo, hi})
		}
		for _, iv := range ivs {
			a.Add(iv)
		}
		for i := len(ivs) - 1; i >= 0; i-- {
			b.Add(ivs[i])
		}
		if a.Total() != b.Total() || a.Len() != b.Len() {
			return false
		}
		return reflect.DeepEqual(a.All(), b.All())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// quick-check: Covers(iv) is equivalent to Missing(iv) being empty.
func TestQuickCoversIffNoMissing(t *testing.T) {
	f := func(ops []uint16, probeLo, probeSpan uint16) bool {
		var s Set
		for _, o := range ops {
			lo := int64(o % 512)
			s.Add(Interval{lo, lo + int64(o%17)})
		}
		iv := Interval{int64(probeLo % 600), int64(probeLo%600) + int64(probeSpan%64)}
		return s.Covers(iv) == (len(s.Missing(iv)) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSetAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		var s Set
		for j := 0; j < 1000; j++ {
			lo := rng.Int63n(1 << 20)
			s.Add(Interval{lo, lo + 64})
		}
	}
}

func BenchmarkSetCovers(b *testing.B) {
	var s Set
	rng := rand.New(rand.NewSource(1))
	for j := 0; j < 10000; j++ {
		lo := rng.Int63n(1 << 20)
		s.Add(Interval{lo, lo + 16})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := rng.Int63n(1 << 20)
		s.Covers(Interval{lo, lo + 8})
	}
}
