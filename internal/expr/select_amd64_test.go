package expr

import (
	"math"
	"slices"
	"testing"

	"nodb/internal/storage"
)

// TestSelectRangeAVX2MatchesGo runs the AVX2 kernel and the Go loop side
// by side on every width, on lengths around multiples of 8, for intervals
// at and past each width's bounds. The kernel must cover len(v)&^7 rows
// (every row when the clamped interval is empty), and the Go loop, given
// the rows it left, must reach the reference's count and positions.
func TestSelectRangeAVX2MatchesGo(t *testing.T) {
	if !hasAVX2 {
		t.Skip("CPU without AVX2")
	}
	testAVX2MatchesGo[int8](t)
	testAVX2MatchesGo[int16](t)
	testAVX2MatchesGo[int32](t)
	testAVX2MatchesGo[int64](t)
}

func testAVX2MatchesGo[T storage.Int](t *testing.T) {
	tmin, tmax := widthBounds[T]()
	bounds := []int64{math.MinInt64, tmin - 1, tmin, tmin + 1, -2, 0, 2, tmax - 1, tmax, tmax + 1, math.MaxInt64}
	lengths := []int{0, 1, 7, 8, 9, 16, 23, 24, 64, 1024, 1031}
	for _, lo := range bounds {
		for _, hi := range bounds {
			for _, n := range lengths {
				v := rangeValues[T](n, lo^hi^int64(n), lo, hi)
				want := make([]int32, n)
				wk := selectRangeDenseGo(v, 0, 0, lo, hi, want)
				got := make([]int32, n)
				k, done := selectRangeAVX2(v, lo, hi, got)
				switch {
				case lo > hi:
					if done != 0 {
						t.Fatalf("width %d, [%d, %d]: kernel took %d rows of an interval it leaves to the Go loop", widthOf[T](), lo, hi, done)
					}
				case done != n&^7 && !(done == n && k == 0):
					t.Fatalf("width %d, %d rows, [%d, %d]: kernel covered %d rows", widthOf[T](), n, lo, hi, done)
				}
				k = selectRangeDenseGo(v, done, k, lo, hi, got)
				if k != wk || !slices.Equal(got[:k], want[:wk]) {
					t.Fatalf("width %d, %d rows, [%d, %d]: AVX2 %d survivors %v, Go %d %v", widthOf[T](), n, lo, hi, k, got[:k], wk, want[:wk])
				}
			}
		}
	}
}

// TestCompressIdx: entry m lists m's set bits in ascending order.
func TestCompressIdx(t *testing.T) {
	for m, lanes := range compressIdx {
		var want []int32
		for lane := range 8 {
			if m&(1<<lane) != 0 {
				want = append(want, int32(lane))
			}
		}
		if !slices.Equal(lanes[:len(want)], want) {
			t.Fatalf("compressIdx[%#x] = %v, want prefix %v", m, lanes, want)
		}
	}
}
