//go:build !amd64

package expr

import "nodb/internal/storage"

// selectRangeSIMD has no vector kernel on this architecture: the Go loop
// takes every row.
func selectRangeSIMD[T storage.Int](v []T, lo, hi int64, out []int32) (k, n int) {
	return 0, 0
}
