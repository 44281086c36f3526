// Package cracking implements database cracking — the adaptive indexing
// scheme behind the paper's "Index DB" curve (Figure 1, citing Idreos,
// Kersten & Manegold, CIDR 2007).
//
// The engine does not crack: the Figure 1b experiment drives this package
// directly over columns it loads itself. A cracker column is a copy of a
// base column that gets physically
// reorganized as a side effect of the range selections that touch it: each
// query partitions the pieces its bounds fall into, so frequently queried
// ranges become contiguous and future selections scan ever smaller pieces.
// No up-front index is built; indexing effort follows the workload — the
// same philosophy the paper transfers to loading.
package cracking

import (
	"sort"

	"nodb/internal/metrics"
)

// Cracker is an adaptively indexed copy of an int64 column.
type Cracker struct {
	// Counters, when non-nil, receives internal-read accounting for the
	// bytes partitioning passes touch.
	Counters *metrics.Counters

	vals []int64
	rows []int64 // original row ids, permuted alongside vals
	// index: idxVals is sorted; all column positions < idxPos[i] hold
	// values < idxVals[i], and positions >= idxPos[i] hold values >=
	// idxVals[i]. This is the cracker index (an array stand-in for the
	// AVL tree of the original implementation; semantics are identical).
	idxVals []int64
	idxPos  []int
	cracks  int // total partitioning passes, for tests/stats
}

// New builds a cracker over a copy of vals; row ids are 0..len(vals)-1.
func New(vals []int64) *Cracker {
	rows := make([]int64, len(vals))
	for i := range rows {
		rows[i] = int64(i)
	}
	return &Cracker{vals: append([]int64(nil), vals...), rows: rows}
}

// Len returns the number of values.
func (c *Cracker) Len() int { return len(c.vals) }

// Cracks returns how many partitioning passes have run (two per new bound).
func (c *Cracker) Cracks() int { return c.cracks }

// Pieces returns the current number of pieces (index entries + 1).
func (c *Cracker) Pieces() int { return len(c.idxVals) + 1 }

// Select returns the half-open position range [a, b) of the cracker column
// that holds exactly the values in [lo, hi), cracking the column at both
// bounds as a side effect. The returned positions index Values/RowIDs.
func (c *Cracker) Select(lo, hi int64) (a, b int) {
	if hi <= lo || len(c.vals) == 0 {
		return 0, 0
	}
	a = c.crack(lo)
	b = c.crack(hi)
	return a, b
}

// Values returns the value slice for a position range from Select. The
// slice aliases the cracker column: it is valid until the next Select.
func (c *Cracker) Values(a, b int) []int64 { return c.vals[a:b] }

// RowIDs returns the original row ids for a position range from Select,
// aliasing internal state like Values.
func (c *Cracker) RowIDs(a, b int) []int64 { return c.rows[a:b] }

// crack ensures a piece boundary at value v and returns its position: all
// positions before it hold values < v, all at or after hold >= v.
func (c *Cracker) crack(v int64) int {
	n := len(c.idxVals)
	i := sort.Search(n, func(i int) bool { return c.idxVals[i] >= v })
	if i < n && c.idxVals[i] == v {
		return c.idxPos[i]
	}
	// Piece [lo, hi) encloses v.
	lo, hi := 0, len(c.vals)
	if i > 0 {
		lo = c.idxPos[i-1]
	}
	if i < n {
		hi = c.idxPos[i]
	}
	p := lo + c.partition(lo, hi, v)
	// Insert (v, p) into the index at position i.
	c.idxVals = append(c.idxVals, 0)
	copy(c.idxVals[i+1:], c.idxVals[i:])
	c.idxVals[i] = v
	c.idxPos = append(c.idxPos, 0)
	copy(c.idxPos[i+1:], c.idxPos[i:])
	c.idxPos[i] = p
	return p
}

// partition reorders vals[lo:hi] so values < v precede values >= v,
// permuting rows identically; returns the split offset within the piece.
func (c *Cracker) partition(lo, hi int, v int64) int {
	c.cracks++
	if c.Counters != nil {
		c.Counters.AddInternalBytesRead(int64(hi-lo) * 16)
	}
	vals, rows := c.vals, c.rows
	i, j := lo, hi-1
	for {
		for i <= j && vals[i] < v {
			i++
		}
		for i <= j && vals[j] >= v {
			j--
		}
		if i >= j {
			break
		}
		vals[i], vals[j] = vals[j], vals[i]
		rows[i], rows[j] = rows[j], rows[i]
		i++
		j--
	}
	return i - lo
}

// CheckInvariant verifies every index entry partitions the column
// correctly. Tests call it; it is O(pieces × n).
func (c *Cracker) CheckInvariant() bool {
	for k, v := range c.idxVals {
		p := c.idxPos[k]
		for i := 0; i < p; i++ {
			if c.vals[i] >= v {
				return false
			}
		}
		for i := p; i < len(c.vals); i++ {
			if c.vals[i] < v {
				return false
			}
		}
	}
	return true
}
