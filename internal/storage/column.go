// Package storage implements the in-memory columnar store that the
// adaptive loading operators feed. It provides dense columns (fully loaded
// attributes), sparse columns (partially loaded attributes, the paper's
// "only part of the data is loaded at any given time"), typed values and
// their JSON encoding.
package storage

import (
	"fmt"
	"sort"

	"nodb/internal/schema"
)

// Value is one typed scalar; query results and literals use it.
type Value struct {
	Typ schema.Type
	I   int64
	F   float64
	S   string
}

// IntValue wraps an int64.
func IntValue(v int64) Value { return Value{Typ: schema.Int64, I: v} }

// FloatValue wraps a float64.
func FloatValue(v float64) Value { return Value{Typ: schema.Float64, F: v} }

// StringValue wraps a string.
func StringValue(v string) Value { return Value{Typ: schema.String, S: v} }

// AsFloat converts numeric values to float64 (ints widen; strings are 0).
func (v Value) AsFloat() float64 {
	switch v.Typ {
	case schema.Int64:
		return float64(v.I)
	case schema.Float64:
		return v.F
	default:
		return 0
	}
}

func (v Value) String() string {
	switch v.Typ {
	case schema.Int64:
		return fmt.Sprintf("%d", v.I)
	case schema.Float64:
		return fmt.Sprintf("%g", v.F)
	default:
		return v.S
	}
}

// MemBytes returns the approximate heap bytes the value occupies when
// retained in the adaptive store (strings count their backing bytes plus
// header; numerics are one word).
func (v Value) MemBytes() int64 {
	if v.Typ == schema.String {
		return int64(len(v.S)) + 16
	}
	return 8
}

// Compare orders two values of the same type family: -1, 0 or +1. Numeric
// values compare numerically across int/float; strings compare
// lexicographically.
func (v Value) Compare(o Value) int {
	if v.Typ == schema.String || o.Typ == schema.String {
		switch {
		case v.S < o.S:
			return -1
		case v.S > o.S:
			return 1
		default:
			return 0
		}
	}
	if v.Typ == schema.Int64 && o.Typ == schema.Int64 {
		switch {
		case v.I < o.I:
			return -1
		case v.I > o.I:
			return 1
		default:
			return 0
		}
	}
	a, b := v.AsFloat(), o.AsFloat()
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// DenseColumn holds every value of an attribute for rows [0, Len).
type DenseColumn struct {
	Typ    schema.Type
	Ints   []int64
	Floats []float64
	Strs   []string
}

// NewDense returns an empty dense column of the given type with capacity
// for n values.
func NewDense(typ schema.Type, n int) *DenseColumn {
	c := &DenseColumn{Typ: typ}
	switch typ {
	case schema.Int64:
		c.Ints = make([]int64, 0, n)
	case schema.Float64:
		c.Floats = make([]float64, 0, n)
	case schema.String:
		c.Strs = make([]string, 0, n)
	}
	return c
}

// NewDenseSized returns a dense column of the given type with n zero
// values, for position-addressed filling by parallel loaders.
func NewDenseSized(typ schema.Type, n int) *DenseColumn {
	c := &DenseColumn{Typ: typ}
	switch typ {
	case schema.Int64:
		c.Ints = make([]int64, n)
	case schema.Float64:
		c.Floats = make([]float64, n)
	case schema.String:
		c.Strs = make([]string, n)
	}
	return c
}

// Len returns the number of values.
func (c *DenseColumn) Len() int {
	switch c.Typ {
	case schema.Int64:
		return len(c.Ints)
	case schema.Float64:
		return len(c.Floats)
	default:
		return len(c.Strs)
	}
}

// Value returns the value at position i.
func (c *DenseColumn) Value(i int) Value {
	switch c.Typ {
	case schema.Int64:
		return IntValue(c.Ints[i])
	case schema.Float64:
		return FloatValue(c.Floats[i])
	default:
		return StringValue(c.Strs[i])
	}
}

// Append adds v (which must match the column type family) at the end.
func (c *DenseColumn) Append(v Value) {
	switch c.Typ {
	case schema.Int64:
		c.Ints = append(c.Ints, v.I)
	case schema.Float64:
		c.Floats = append(c.Floats, v.AsFloat())
	default:
		c.Strs = append(c.Strs, v.S)
	}
}

// AppendSelected appends src's values at the positions sel lists, or at
// positions 0..n-1 when sel is nil (src has c's type).
func (c *DenseColumn) AppendSelected(src *DenseColumn, sel []int32, n int) {
	switch src.Typ {
	case schema.Int64:
		if sel == nil {
			c.Ints = append(c.Ints, src.Ints[:n]...)
			return
		}
		for _, i := range sel {
			c.Ints = append(c.Ints, src.Ints[i])
		}
	case schema.Float64:
		if sel == nil {
			c.Floats = append(c.Floats, src.Floats[:n]...)
			return
		}
		for _, i := range sel {
			c.Floats = append(c.Floats, src.Floats[i])
		}
	default:
		if sel == nil {
			c.Strs = append(c.Strs, src.Strs[:n]...)
			return
		}
		for _, i := range sel {
			c.Strs = append(c.Strs, src.Strs[i])
		}
	}
}

// Set stores v at position i.
func (c *DenseColumn) Set(i int, v Value) {
	switch c.Typ {
	case schema.Int64:
		c.Ints[i] = v.I
	case schema.Float64:
		c.Floats[i] = v.AsFloat()
	default:
		c.Strs[i] = v.S
	}
}

// MemSize returns the approximate heap bytes held by the column.
func (c *DenseColumn) MemSize() int64 {
	switch c.Typ {
	case schema.Int64:
		return int64(cap(c.Ints)) * 8
	case schema.Float64:
		return int64(cap(c.Floats)) * 8
	default:
		var s int64
		for _, v := range c.Strs {
			s += int64(len(v)) + 16
		}
		return s
	}
}

// SparseColumn holds values for a subset of a table's rows, kept sorted by
// row id. It is the materialization of a *partially loaded* attribute:
// the paper's Partial Loads V2 stores only qualifying values and must know
// exactly which rows it holds.
type SparseColumn struct {
	Typ    schema.Type
	rows   []int64 // ascending, unique
	ints   []int64
	floats []float64
	strs   []string
}

// NewSparse returns an empty sparse column of the given type.
func NewSparse(typ schema.Type) *SparseColumn { return &SparseColumn{Typ: typ} }

// Len returns the number of rows present.
func (s *SparseColumn) Len() int { return len(s.rows) }

// Rows returns the present row ids in ascending order. The slice aliases
// internal state; callers must not mutate it.
func (s *SparseColumn) Rows() []int64 { return s.rows }

// Has reports whether row is present.
func (s *SparseColumn) Has(row int64) bool {
	i := sort.Search(len(s.rows), func(i int) bool { return s.rows[i] >= row })
	return i < len(s.rows) && s.rows[i] == row
}

// Get returns the value of row, if present.
func (s *SparseColumn) Get(row int64) (Value, bool) {
	i := sort.Search(len(s.rows), func(i int) bool { return s.rows[i] >= row })
	if i >= len(s.rows) || s.rows[i] != row {
		return Value{}, false
	}
	return s.at(i), true
}

// At returns the i-th present (row, value) pair in row order.
func (s *SparseColumn) At(i int) (int64, Value) { return s.rows[i], s.at(i) }

func (s *SparseColumn) at(i int) Value {
	switch s.Typ {
	case schema.Int64:
		return IntValue(s.ints[i])
	case schema.Float64:
		return FloatValue(s.floats[i])
	default:
		return StringValue(s.strs[i])
	}
}

// Add inserts (row, v). Appends in O(1) when rows arrive in ascending
// order (the common case: scans emit rows in file order); otherwise it
// inserts in place. Adding a row that is already present overwrites it.
func (s *SparseColumn) Add(row int64, v Value) {
	n := len(s.rows)
	if n == 0 || row > s.rows[n-1] {
		s.rows = append(s.rows, row)
		s.appendVal(v)
		return
	}
	i := sort.Search(n, func(i int) bool { return s.rows[i] >= row })
	if i < n && s.rows[i] == row {
		s.setVal(i, v)
		return
	}
	s.rows = append(s.rows, 0)
	copy(s.rows[i+1:], s.rows[i:])
	s.rows[i] = row
	s.insertVal(i, v)
}

func (s *SparseColumn) appendVal(v Value) {
	switch s.Typ {
	case schema.Int64:
		s.ints = append(s.ints, v.I)
	case schema.Float64:
		s.floats = append(s.floats, v.AsFloat())
	default:
		s.strs = append(s.strs, v.S)
	}
}

func (s *SparseColumn) setVal(i int, v Value) {
	switch s.Typ {
	case schema.Int64:
		s.ints[i] = v.I
	case schema.Float64:
		s.floats[i] = v.AsFloat()
	default:
		s.strs[i] = v.S
	}
}

// AddRun inserts rows (ascending, unique) with values val(i), in one
// merge pass: O(existing + len(rows)). Rows already present are
// overwritten with the new value. A per-row Add would memmove the tail on
// every out-of-order insert, turning a large interleaved merge (a wide
// partial load after a selective one) quadratic. It returns the
// approximate bytes the incoming values occupy (each value is
// materialized exactly once).
func (s *SparseColumn) AddRun(rows []int64, val func(i int) Value) (stored int64) {
	if len(rows) == 0 {
		return 0
	}
	n := len(s.rows)
	// Fast path: the run extends the column (scans emit in row order, so
	// the first merge into an empty column lands here).
	if n == 0 || rows[0] > s.rows[n-1] {
		s.rows = append(s.rows, rows...)
		for i := range rows {
			v := val(i)
			stored += v.MemBytes() + 8
			s.appendVal(v)
		}
		return stored
	}
	merged := make([]int64, 0, n+len(rows))
	out := NewSparse(s.Typ)
	out.rows = merged
	i, j := 0, 0
	for i < n || j < len(rows) {
		switch {
		case j >= len(rows):
			out.rows = append(out.rows, s.rows[i])
			out.appendVal(s.at(i))
			i++
		case i >= n || rows[j] <= s.rows[i]:
			if i < n && rows[j] == s.rows[i] {
				i++ // newer value wins the duplicate row
			}
			v := val(j)
			stored += v.MemBytes() + 8
			out.rows = append(out.rows, rows[j])
			out.appendVal(v)
			j++
		default:
			out.rows = append(out.rows, s.rows[i])
			out.appendVal(s.at(i))
			i++
		}
	}
	s.rows, s.ints, s.floats, s.strs = out.rows, out.ints, out.floats, out.strs
	return stored
}

func (s *SparseColumn) insertVal(i int, v Value) {
	switch s.Typ {
	case schema.Int64:
		s.ints = append(s.ints, 0)
		copy(s.ints[i+1:], s.ints[i:])
		s.ints[i] = v.I
	case schema.Float64:
		s.floats = append(s.floats, 0)
		copy(s.floats[i+1:], s.floats[i:])
		s.floats[i] = v.AsFloat()
	default:
		s.strs = append(s.strs, "")
		copy(s.strs[i+1:], s.strs[i:])
		s.strs[i] = v.S
	}
}

// FloatAt returns the float64 value at ordinal i (column must be Float64).
func (s *SparseColumn) FloatAt(i int) float64 { return s.floats[i] }

// StrAt returns the string value at ordinal i (column must be String).
func (s *SparseColumn) StrAt(i int) string { return s.strs[i] }

// MemSize returns the approximate heap bytes held by the column.
func (s *SparseColumn) MemSize() int64 {
	sz := int64(cap(s.rows)) * 8
	switch s.Typ {
	case schema.Int64:
		sz += int64(cap(s.ints)) * 8
	case schema.Float64:
		sz += int64(cap(s.floats)) * 8
	default:
		for _, v := range s.strs {
			sz += int64(len(v)) + 16
		}
	}
	return sz
}

// ToDense scatters the sparse values into a dense column of n rows; absent
// rows hold zero values. Used when a partially loaded column becomes fully
// covered.
func (s *SparseColumn) ToDense(n int) *DenseColumn {
	d := NewDenseSized(s.Typ, n)
	for i, r := range s.rows {
		d.Set(int(r), s.at(i))
	}
	return d
}
