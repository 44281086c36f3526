package expr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

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
			{"go", func(v []T) int { return selectRangeDenseGo(v, 0, 0, -50, 0, out) }},
			{"simd", func(v []T) int { return selectRangeDense(v, -50, 0, out) }},
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
