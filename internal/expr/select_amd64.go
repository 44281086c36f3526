package expr

import (
	"math"
	"unsafe"

	"nodb/internal/cpu"
	"nodb/internal/storage"
)

// hasAVX2 is read once per process: the CPU has AVX2 and POPCNT, and the
// operating system saves the YMM registers.
var hasAVX2 = cpu.HasAVX2

// compressIdx[m] lists the set bits of m, ascending, padded with zeros:
// the lanes a keep mask m keeps, in the order the kernels write them.
var compressIdx = func() (t [256][8]int32) {
	for m := range t {
		k := 0
		for lane := range 8 {
			if m>>lane&1 != 0 {
				t[m][k] = int32(lane)
				k++
			}
		}
	}
	return t
}()

// selectRangeSIMD runs the AVX2 kernel when the CPU has it.
func selectRangeSIMD[T storage.Int](v []T, lo, hi int64, out []int32) (k, n int) {
	if !hasAVX2 {
		return 0, 0
	}
	return selectRangeAVX2(v, lo, hi, out)
}

// selectRangeAVX2 is selectRangeDenseGo over the first n = len(v)&^7 rows
// of v, 8 rows per step; it returns the survivors' count and n. The
// interval is first clamped to T's range, so the int32 lanes of widths 1,
// 2 and 4 compare exactly as the int64 loop does, a literal outside the
// width included; an interval that misses T's range keeps no row of v. It
// leaves lo > hi, which Compile never folds, to the Go loop. Like the Go
// loop, it writes garbage positions past the count, within out[:n].
func selectRangeAVX2[T storage.Int](v []T, lo, hi int64, out []int32) (k, n int) {
	n = len(v) &^ 7
	if n == 0 || lo > hi {
		return 0, 0
	}
	_ = out[n-1] // the kernels write out[:n] unchecked
	p, o := unsafe.Pointer(unsafe.SliceData(v)), unsafe.SliceData(out)
	width := unsafe.Sizeof(v[0])
	if width == 8 {
		return selectRange64AVX2((*int64)(p), n, lo^math.MinInt64, int64(uint64(hi-lo))^math.MinInt64, o), n
	}
	bits := 8 * width
	lo, hi = max(lo, int64(-1)<<(bits-1)), min(hi, int64(1)<<(bits-1)-1)
	if lo > hi {
		return 0, len(v)
	}
	base, limit := int32(lo)^math.MinInt32, int32(uint32(hi-lo))^math.MinInt32
	switch width {
	case 1:
		k = selectRange8AVX2((*int8)(p), n, base, limit, o)
	case 2:
		k = selectRange16AVX2((*int16)(p), n, base, limit, o)
	default:
		k = selectRange32AVX2((*int32)(p), n, base, limit, o)
	}
	return k, n
}

// selectRangeSelSIMD runs the AVX2 kernel over sel when the CPU has it.
func selectRangeSelSIMD(v []int32, lo, hi int64, sel, out []int32) (k, n int) {
	if !hasAVX2 {
		return 0, 0
	}
	return selectRangeSelAVX2(v, lo, hi, sel, out)
}

// selectRangeSelAVX2 is selectRangeGo over the first n = len(sel)&^7
// positions of sel, 8 per step: it gathers their rows of v, compares them
// as selectRangeAVX2 does and writes the kept positions by one
// permutation of the loaded ones. It returns the survivors' count and n.
//   - The interval is first clamped to int32's range, so the int32 lanes
//     compare as the int64 loop does; an interval that misses the range
//     keeps no position of sel. lo > hi, which Compile never folds, is
//     left to the Go loop.
//   - out may be sel itself, as Filter.Apply passes out[:k] as both: each
//     step stores 8 positions at out[k] with k <= i, so it overwrites
//     only positions already loaded, and k+8 <= n keeps it within out[:n].
//   - The gathers read v unchecked at every position of sel[:n]. sel is
//     ascending, so checking its first and last position bounds them all.
//   - Only 4-byte columns come here. A dword gather at byte or word scale
//     reads 3 or 2 bytes past a position, past the last row of v when the
//     position is the last row; 8-byte columns showed no gain.
func selectRangeSelAVX2(v []int32, lo, hi int64, sel, out []int32) (k, n int) {
	n = len(sel) &^ 7
	if n == 0 || lo > hi || sel[0] < 0 || int(sel[n-1]) >= len(v) {
		return 0, 0 // out-of-range positions panic in the Go loop
	}
	_ = out[n-1] // the kernel writes out[:n] unchecked
	lo, hi = max(lo, math.MinInt32), min(hi, math.MaxInt32)
	if lo > hi {
		return 0, len(sel)
	}
	return selectRangeSel32AVX2(unsafe.SliceData(v), unsafe.SliceData(sel), n, int32(lo)^math.MinInt32, int32(uint32(hi-lo))^math.MinInt32, unsafe.SliceData(out)), n
}

// The kernels in select_amd64.s keep row x of v[:n] unless x-base >
// limit, signed, in the lane type; n is a positive multiple of 8.

//go:noescape
func selectRange8AVX2(v *int8, n int, base, limit int32, out *int32) (k int)

//go:noescape
func selectRange16AVX2(v *int16, n int, base, limit int32, out *int32) (k int)

//go:noescape
func selectRange32AVX2(v *int32, n int, base, limit int32, out *int32) (k int)

//go:noescape
func selectRange64AVX2(v *int64, n int, base, limit int64, out *int32) (k int)

// The gather kernel keeps position sel[i] of sel[:n] unless v[sel[i]] -
// base > limit, signed; n is a positive multiple of 8 and every position
// is a row of v.

//go:noescape
func selectRangeSel32AVX2(v *int32, sel *int32, n int, base, limit int32, out *int32) (k int)
