package expr

import (
	"math"
	"unsafe"

	"nodb/internal/storage"
)

// hasAVX2 is read once per process: the CPU has AVX2 and POPCNT, and the
// operating system saves the YMM registers.
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
