//go:build !amd64

package scan

// hasAVX2 is false off amd64: the CSV scan searches the bytes.
const hasAVX2 = false

// structuralIndex has no kernel on this architecture and is never called.
func structuralIndex(data []byte, delim byte, nl, dl []uint64) {
	panic("scan: no structural index on this architecture")
}
