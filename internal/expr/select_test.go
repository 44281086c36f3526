package expr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"nodb/internal/schema"
	"nodb/internal/storage"
)

// widthOf returns T's width in bytes.
func widthOf[T storage.Int]() int {
	var x T
	return int(unsafe.Sizeof(x))
}

// widthBounds returns the smallest and largest value of T.
func widthBounds[T storage.Int]() (lo, hi int64) {
	bits := 8 * widthOf[T]()
	return -1 << (bits - 1), 1<<(bits-1) - 1
}

// rangeValues returns n values of T drawn by seed: a quarter at T's
// bounds, a quarter each just around lo and around hi (wrapped into T),
// the rest anywhere in T's range.
func rangeValues[T storage.Int](n int, seed, lo, hi int64) []T {
	tmin, tmax := widthBounds[T]()
	edges := []int64{tmin, tmin + 1, -1, 0, 1, tmax - 1, tmax}
	rng := rand.New(rand.NewSource(seed))
	v := make([]T, n)
	for i := range v {
		switch rng.Intn(4) {
		case 0:
			v[i] = T(edges[rng.Intn(len(edges))])
		case 1:
			v[i] = T(lo + rng.Int63n(5) - 2)
		case 2:
			v[i] = T(hi + rng.Int63n(5) - 2)
		default:
			v[i] = T(rng.Uint64())
		}
	}
	return v
}

// checkSelectRange compares selectRangeDense — the vector kernel where
// the CPU has one — with the Go loop on count and positions, and checks
// that it wrote nothing past out[:len(v)].
func checkSelectRange[T storage.Int](t *testing.T, v []T, lo, hi int64) {
	t.Helper()
	n := len(v)
	want := make([]int32, n)
	wk := selectRangeDenseGo(v, 0, 0, lo, hi, want)
	const canary = -7
	buf := make([]int32, n+8)
	for i := range buf {
		buf[i] = canary
	}
	k := selectRangeDense(v, lo, hi, buf[:n])
	if k != wk || !slices.Equal(buf[:k], want[:wk]) {
		t.Fatalf("width %d, %d rows, [%d, %d]: %d survivors %v, Go loop %d %v",
			widthOf[T](), n, lo, hi, k, buf[:k], wk, want[:wk])
	}
	for i, x := range buf[n:] {
		if x != canary {
			t.Fatalf("width %d, %d rows: wrote out[%d] past the batch", widthOf[T](), n, n+i)
		}
	}
}

// FuzzSelectRangeDense holds the dense range select to the Go loop on
// every width, on 0 to 3000 rows, for any interval: MinInt64/MaxInt64
// bounds, lo > hi, and bounds outside the width included. width%4 picks
// 1, 2, 4 or 8 bytes.
func FuzzSelectRangeDense(f *testing.F) {
	intervals := [][2]int64{
		{math.MinInt64, math.MaxInt64}, // every row
		{math.MinInt64, math.MinInt64}, // no row
		{math.MaxInt64, math.MaxInt64},
		{0, 0}, {-1, 1}, {-100, 100}, {1, 0}, {5, -5}, // lo > hi included
		{math.MinInt8, math.MaxInt8}, {math.MaxInt8 + 1, math.MaxInt16}, {math.MinInt16, math.MinInt8 - 1},
		{math.MinInt32, -1}, {math.MaxInt32, math.MaxInt64}, {math.MinInt64, math.MinInt32 - 1},
		{1 << 40, 1 << 41}, {math.MinInt32, math.MaxInt32},
	}
	for w := range uint8(4) {
		for _, n := range []uint16{0, 1, 7, 8, 9, 15, 16, 17, 63, 1024, 1029, 3000} {
			for i, iv := range intervals {
				f.Add(w, n, int64(i), iv[0], iv[1])
			}
		}
	}
	f.Fuzz(func(t *testing.T, width uint8, n uint16, seed, lo, hi int64) {
		rows := int(n % 3001)
		switch width % 4 {
		case 0:
			checkSelectRange(t, rangeValues[int8](rows, seed, lo, hi), lo, hi)
		case 1:
			checkSelectRange(t, rangeValues[int16](rows, seed, lo, hi), lo, hi)
		case 2:
			checkSelectRange(t, rangeValues[int32](rows, seed, lo, hi), lo, hi)
		default:
			checkSelectRange(t, rangeValues[int64](rows, seed, lo, hi), lo, hi)
		}
	})
}

// selPositions returns an ascending selection over rows rows: each row
// kept with probability pct/100, the last row too when last is set.
func selPositions(rows, pct int, seed int64, last bool) []int32 {
	rng := rand.New(rand.NewSource(seed))
	var sel []int32
	for i := range rows {
		if rng.Intn(100) < pct || (last && i == rows-1) {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// rangeStep runs a ranged step over v's positions sel as Filter.Apply
// does, through step.apply's dispatch by width.
func rangeStep[T storage.Int](v []T, lo, hi int64, sel, out []int32) int {
	col := &storage.DenseColumn{Typ: schema.Int64}
	switch v := any(v).(type) {
	case []int8:
		col.I8 = v
	case []int16:
		col.I16 = v
	case []int32:
		col.I32 = v
	case []int64:
		col.Ints = v
	}
	s := step{ranged: true, lo: lo, hi: hi}
	return s.apply(col, sel, out)
}

// checkSelectRangeSel compares the ranged step — the gather kernel where
// the CPU has one for the width — with the Go loop on count and
// positions, in place (sel as out) or into a separate out it must not
// write past out[:len(sel)].
func checkSelectRangeSel[T storage.Int](t *testing.T, v []T, sel []int32, lo, hi int64, inPlace bool) {
	t.Helper()
	n := len(sel)
	want := make([]int32, n)
	wk := selectRangeGo(v, 0, 0, lo, hi, sel, want)
	const canary = -7
	buf := make([]int32, n+8)
	for i := range buf {
		buf[i] = canary
	}
	var k int
	if inPlace {
		copy(buf, sel)
		k = rangeStep(v, lo, hi, buf[:n], buf[:n])
	} else {
		k = rangeStep(v, lo, hi, sel, buf[:n])
	}
	if k != wk || !slices.Equal(buf[:k], want[:wk]) {
		t.Fatalf("width %d, %d rows, %d positions, [%d, %d], in place %v: %d survivors %v, Go loop %d %v",
			widthOf[T](), len(v), n, lo, hi, inPlace, k, buf[:k], wk, want[:wk])
	}
	for i, x := range buf[n:] {
		if x != canary {
			t.Fatalf("width %d, %d positions: wrote out[%d] past the selection", widthOf[T](), n, n+i)
		}
	}
}

// FuzzSelectRangeSel holds the ranged step over a selection vector to
// the Go loop on every width (width%4 picks 1, 2, 4 or 8 bytes), on 0 to
// 3000 rows of which 0 to 100 % are selected, in place and not, with the
// selection ending at the last row or not, for any interval.
func FuzzSelectRangeSel(f *testing.F) {
	intervals := [][2]int64{
		{math.MinInt64, math.MaxInt64}, {math.MinInt64, math.MinInt64}, {math.MaxInt64, math.MaxInt64},
		{0, 0}, {-1, 1}, {-100, 100}, {5, -5},
		{math.MinInt8, math.MaxInt8}, {math.MinInt16, math.MinInt8 - 1},
		{math.MinInt32, -1}, {math.MaxInt32, math.MaxInt64}, {math.MinInt64, math.MinInt32 - 1},
		{1 << 40, 1 << 41},
	}
	for w := range uint8(4) {
		for _, n := range []uint16{0, 1, 8, 17, 1024, 3000} {
			for _, pct := range []uint8{0, 10, 50, 100} {
				for i, iv := range intervals {
					f.Add(w, n, pct, int64(i), iv[0], iv[1], i%2 == 0)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, width uint8, n uint16, pct uint8, seed, lo, hi int64, inPlace bool) {
		rows, last := int(n%3001), seed%3 == 0
		sel := selPositions(rows, int(pct%101), seed, last)
		switch width % 4 {
		case 0:
			checkSelectRangeSel(t, rangeValues[int8](rows, seed, lo, hi), sel, lo, hi, inPlace)
		case 1:
			checkSelectRangeSel(t, rangeValues[int16](rows, seed, lo, hi), sel, lo, hi, inPlace)
		case 2:
			checkSelectRangeSel(t, rangeValues[int32](rows, seed, lo, hi), sel, lo, hi, inPlace)
		default:
			checkSelectRangeSel(t, rangeValues[int64](rows, seed, lo, hi), sel, lo, hi, inPlace)
		}
	})
}

// BenchmarkSelectRangeSel times the ranged step over a selection vector,
// in place as Filter.Apply's later steps run it, in 1024-row batches of a
// 300k-row column: per width, share of rows selected and selectivity,
// through the Go loop and through step.apply's dispatch (the gather
// kernel where the CPU has one for the width).
func BenchmarkSelectRangeSel(b *testing.B) {
	benchSelectRangeSel[int8](b)
	benchSelectRangeSel[int16](b)
	benchSelectRangeSel[int32](b)
	benchSelectRangeSel[int64](b)
}

func benchSelectRangeSel[T storage.Int](b *testing.B) {
	const rows, batch = 300 * 1024, 1024
	for _, in := range []int{10, 100} {
		for _, pct := range []float64{1, 31.6} {
			rng := rand.New(rand.NewSource(1))
			v := make([]T, rows)
			for i := range v {
				if rng.Float64()*100 < pct {
					v[i] = T(-rng.Intn(51))
				} else {
					v[i] = T(1 + rng.Intn(100))
				}
			}
			sel := selPositions(batch, in, 2, false)
			buf := make([]int32, len(sel))
			paths := []struct {
				name string
				run  func(v []T) int
			}{
				{"go", func(v []T) int { return selectRangeGo(v, 0, 0, benchLo, benchHi, buf, buf) }},
				{"step", func(v []T) int { return rangeStep(v, benchLo, benchHi, buf, buf) }},
			}
			for _, p := range paths {
				b.Run(fmt.Sprintf("width=%d/in=%d%%/sel=%g%%/path=%s", widthOf[T](), in, pct, p.name), func(b *testing.B) {
					for b.Loop() {
						for i := 0; i < rows; i += batch {
							copy(buf, sel)
							p.run(v[i : i+batch])
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows/batch*len(sel)), "ns/position")
				})
			}
		}
	}
}

// benchLo and benchHi are the benchmarked interval. As variables they
// stay unknown to the compiler, so a Go loop inlined into a benchmark
// does not get a constant interval the dispatched path cannot have.
var benchLo, benchHi int64 = -50, 0

// BenchmarkSelectRangeDense times the dense range select in 1024-row
// batches of a 300k-row column, per width and selectivity, through the Go
// loop and through the dispatch (the vector kernel where the CPU has one).
func BenchmarkSelectRangeDense(b *testing.B) {
	benchSelectRange[int8](b)
	benchSelectRange[int16](b)
	benchSelectRange[int32](b)
	benchSelectRange[int64](b)
}

func benchSelectRange[T storage.Int](b *testing.B) {
	const rows, batch = 300 * 1024, 1024
	for _, pct := range []float64{0.001, 1, 31.6, 100} {
		// Survivors lie in [-50, 0], the rest in [1, 100]: every width
		// holds both.
		rng := rand.New(rand.NewSource(1))
		v := make([]T, rows)
		for i := range v {
			if rng.Float64()*100 < pct {
				v[i] = T(-rng.Intn(51))
			} else {
				v[i] = T(1 + rng.Intn(100))
			}
		}
		out := make([]int32, batch)
		paths := []struct {
			name string
			run  func(v []T) int
		}{
			{"go", func(v []T) int { return selectRangeDenseGo(v, 0, 0, benchLo, benchHi, out) }},
			{"simd", func(v []T) int { return selectRangeDense(v, benchLo, benchHi, out) }},
		}
		for _, p := range paths {
			b.Run(fmt.Sprintf("width=%d/sel=%g%%/path=%s", widthOf[T](), pct, p.name), func(b *testing.B) {
				for b.Loop() {
					for i := 0; i < rows; i += batch {
						p.run(v[i : i+batch])
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			})
		}
	}
}
