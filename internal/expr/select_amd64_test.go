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

// TestSelectRangeSelAVX2MatchesGo runs the gather kernel and the Go loop
// side by side on 4-byte columns, in place and into a separate out, on
// selections of 0 to 100 % of the rows (ending at the last row or not),
// for intervals at and past int32's bounds. The kernel must cover
// len(sel)&^7 positions (every one when the clamped interval is empty,
// none when lo > hi), and the Go loop, given the positions it left, must
// reach the reference's count and positions.
func TestSelectRangeSelAVX2MatchesGo(t *testing.T) {
	if !hasAVX2 {
		t.Skip("CPU without AVX2")
	}
	tmin, tmax := widthBounds[int32]()
	bounds := []int64{math.MinInt64, tmin - 1, tmin, tmin + 1, -2, 0, 2, tmax - 1, tmax, tmax + 1, math.MaxInt64}
	for _, lo := range bounds {
		for _, hi := range bounds {
			for _, rows := range []int{0, 9, 64, 1031} {
				for _, pct := range []int{0, 30, 100} {
					for _, inPlace := range []bool{false, true} {
						sel := selPositions(rows, pct, lo^hi^int64(rows), rows%2 == 1)
						v := rangeValues[int32](rows, lo^hi^int64(rows+pct), lo, hi)
						want := make([]int32, len(sel))
						wk := selectRangeGo(v, 0, 0, lo, hi, sel, want)
						got := make([]int32, len(sel))
						in := sel
						if inPlace {
							copy(got, sel)
							in = got
						}
						k, done := selectRangeSelAVX2(v, lo, hi, in, got)
						switch n := len(sel) &^ 7; {
						case lo > hi:
							if done != 0 {
								t.Fatalf("[%d, %d]: kernel took %d positions it leaves to the Go loop", lo, hi, done)
							}
						case done != n && !(done == len(sel) && k == 0):
							t.Fatalf("%d positions, [%d, %d]: kernel covered %d", len(sel), lo, hi, done)
						}
						k = selectRangeGo(v, done, k, lo, hi, in, got)
						if k != wk || !slices.Equal(got[:k], want[:wk]) {
							t.Fatalf("%d positions, [%d, %d], in place %v: AVX2 %d survivors %v, Go %d %v",
								len(sel), lo, hi, inPlace, k, got[:k], wk, want[:wk])
						}
					}
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
