package scan

import (
	"unsafe"

	"nodb/internal/cpu"
)

// hasAVX2 is read once per process. With it, a projected CSV scan indexes
// every chunk it reads and walks the index; without it, the scan searches
// the bytes.
var hasAVX2 = cpu.HasAVX2

// structuralIndex is stage 1 on amd64: it runs the AVX2 kernel over the
// whole 64-byte blocks of data, then over a zeroed copy of the last partial
// block, so no bit at or past len(data) is ever set. nl and dl must hold
// (len(data)+63)/64 words.
func structuralIndex(data []byte, delim byte, nl, dl []uint64) {
	if len(data) == 0 {
		return
	}
	full := len(data) / 64
	words := (len(data) + 63) / 64
	_, _ = nl[words-1:], dl[words-1:] // the kernel writes nl[:words] and dl[:words] unchecked
	if full > 0 {
		structuralAVX2(unsafe.SliceData(data), full, delim, unsafe.SliceData(nl), unsafe.SliceData(dl))
	}
	if rest := data[full*64:]; len(rest) > 0 {
		var block [64]byte
		copy(block[:], rest)
		structuralAVX2(&block[0], 1, delim, &nl[full], &dl[full])
		// The zeroed padding never matches '\n', and matches delim only
		// when delim is 0, which the mask clears.
		dl[full] &= 1<<len(rest) - 1
	}
}

//go:noescape
func structuralAVX2(p *byte, blocks int, delim byte, nl, dl *uint64)
