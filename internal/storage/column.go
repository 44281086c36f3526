// Package storage implements the in-memory columnar store that the
// adaptive loading operators feed. It provides dense columns (fully loaded
// attributes), sparse columns (partially loaded attributes, the paper's
// "only part of the data is loaded at any given time"), typed values and
// their JSON encoding.
//
// Width rule: an Int64 dense column that a load builds is stored at 1, 2,
// 4 or 8 bytes per value — the narrowest of int8, int16, int32 and int64
// that holds the column's [min, max] (WidthFor). The width is physical
// only: the schema type stays Int64, every read widens to int64, and
// sums accumulate in int64. A column that must take a value past its
// width (an append, a grown file's tail) is copied at the wider width
// first. Sparse columns, and the vectors that operators build, stay int64.
package storage

import (
	"fmt"
	"math"
	"sort"
	"strconv"

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
		return strconv.FormatInt(v.I, 10)
	case schema.Float64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
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

// Int is the set of physical widths an Int64 column is stored at.
type Int interface {
	~int8 | ~int16 | ~int32 | ~int64
}

// WidthFor returns the narrowest width, in bytes per value (1, 2, 4 or
// 8), whose integer type holds every value in [lo, hi].
func WidthFor(lo, hi int64) int {
	switch {
	case lo >= math.MinInt8 && hi <= math.MaxInt8:
		return 1
	case lo >= math.MinInt16 && hi <= math.MaxInt16:
		return 2
	case lo >= math.MinInt32 && hi <= math.MaxInt32:
		return 4
	}
	return 8
}

// DenseColumn holds every value of an attribute for rows [0, Len). An
// Int64 column's values live in exactly one of I8, I16, I32 and Ints;
// Width reports which. Ints with the narrow slices nil is the 8-byte
// width, so a column built with Ints alone is an ordinary int64 column.
type DenseColumn struct {
	Typ    schema.Type
	I8     []int8
	I16    []int16
	I32    []int32
	Ints   []int64
	Floats []float64
	Strs   []string
}

// NewDense returns an empty dense column of the given type with capacity
// for n values. An Int64 column is 8 bytes wide.
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
	if typ == schema.Int64 {
		return NewDenseInts(8, n)
	}
	c := &DenseColumn{Typ: typ}
	switch typ {
	case schema.Float64:
		c.Floats = make([]float64, n)
	case schema.String:
		c.Strs = make([]string, n)
	}
	return c
}

// NewDenseInts returns an Int64 column of n zero values stored at width w
// (1, 2, 4 or 8 bytes per value).
func NewDenseInts(w, n int) *DenseColumn {
	c := &DenseColumn{Typ: schema.Int64}
	switch w {
	case 1:
		c.I8 = make([]int8, n)
	case 2:
		c.I16 = make([]int16, n)
	case 4:
		c.I32 = make([]int32, n)
	default:
		c.Ints = make([]int64, n)
	}
	return c
}

// Width returns the bytes per value of an Int64 column: 1, 2, 4 or 8.
func (c *DenseColumn) Width() int {
	switch {
	case c.I8 != nil:
		return 1
	case c.I16 != nil:
		return 2
	case c.I32 != nil:
		return 4
	}
	return 8
}

// Int returns the value at position i of an Int64 column.
func (c *DenseColumn) Int(i int) int64 {
	switch {
	case c.I8 != nil:
		return int64(c.I8[i])
	case c.I16 != nil:
		return int64(c.I16[i])
	case c.I32 != nil:
		return int64(c.I32[i])
	}
	return c.Ints[i]
}

// Len returns the number of values.
func (c *DenseColumn) Len() int {
	switch c.Typ {
	case schema.Int64:
		switch c.Width() {
		case 1:
			return len(c.I8)
		case 2:
			return len(c.I16)
		case 4:
			return len(c.I32)
		}
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
		return IntValue(c.Int(i))
	case schema.Float64:
		return FloatValue(c.Floats[i])
	default:
		return StringValue(c.Strs[i])
	}
}

// SliceInto points w at positions [lo, hi) of c, a window over c's
// values, which it shares. Only the one slice c stores its values in is
// written, so w must be zero or a window of c (or of a column of c's type
// and width) already: re-pointing a reused window copies one slice
// header, not the column.
func (c *DenseColumn) SliceInto(w *DenseColumn, lo, hi int) {
	w.Typ = c.Typ
	switch {
	case c.I8 != nil:
		w.I8 = c.I8[lo:hi]
	case c.I16 != nil:
		w.I16 = c.I16[lo:hi]
	case c.I32 != nil:
		w.I32 = c.I32[lo:hi]
	case c.Typ == schema.Int64:
		w.Ints = c.Ints[lo:hi]
	case c.Typ == schema.Float64:
		w.Floats = c.Floats[lo:hi]
	default:
		w.Strs = c.Strs[lo:hi]
	}
}

// Append adds v (which must match the column type family) at the end.
func (c *DenseColumn) Append(v Value) {
	switch c.Typ {
	case schema.Int64:
		c.appendInt(v.I)
	case schema.Float64:
		c.Floats = append(c.Floats, v.AsFloat())
	default:
		c.Strs = append(c.Strs, v.S)
	}
}

// appendInt appends v to an Int64 column, first widening the column when
// v does not fit its width.
func (c *DenseColumn) appendInt(v int64) {
	ok := true
	switch c.Width() {
	case 1:
		c.I8, ok = appendFit(c.I8, v)
	case 2:
		c.I16, ok = appendFit(c.I16, v)
	case 4:
		c.I32, ok = appendFit(c.I32, v)
	default:
		c.Ints = append(c.Ints, v)
	}
	if !ok {
		*c = *c.asWidth(WidthFor(v, v))
		c.appendInt(v)
	}
}

// appendFit appends v to s when T holds it.
func appendFit[T Int](s []T, v int64) ([]T, bool) {
	if x := T(v); int64(x) == v {
		return append(s, x), true
	}
	return s, false
}

// AppendSelected appends src's values at the positions sel lists, or at
// positions 0..n-1 when sel is nil (src has c's type). An Int64 column
// narrower than src is widened to src's width first.
func (c *DenseColumn) AppendSelected(src *DenseColumn, sel []int32, n int) {
	switch src.Typ {
	case schema.Int64:
		if c.Width() < src.Width() {
			*c = *c.asWidth(src.Width())
		}
		c.appendInts(src, sel, n)
	case schema.Float64:
		c.Floats = appendSel(c.Floats, src.Floats, sel, n)
	default:
		c.Strs = appendSel(c.Strs, src.Strs, sel, n)
	}
}

// appendInts appends src's values at sel (or 0..n-1) to the Int64 column
// c, whose width must hold every one of them.
func (c *DenseColumn) appendInts(src *DenseColumn, sel []int32, n int) {
	switch c.Width() {
	case 1:
		c.I8 = appendInts(c.I8, src, sel, n)
	case 2:
		c.I16 = appendInts(c.I16, src, sel, n)
	case 4:
		c.I32 = appendInts(c.I32, src, sel, n)
	default:
		c.Ints = appendInts(c.Ints, src, sel, n)
	}
}

// appendInts appends the Int64 column src's values at sel (or 0..n-1) to
// dst, whose type holds every one of them.
func appendInts[D Int](dst []D, src *DenseColumn, sel []int32, n int) []D {
	switch src.Width() {
	case 1:
		return appendConv(dst, src.I8, sel, n)
	case 2:
		return appendConv(dst, src.I16, sel, n)
	case 4:
		return appendConv(dst, src.I32, sel, n)
	}
	return appendConv(dst, src.Ints, sel, n)
}

func appendConv[D, S Int](dst []D, src []S, sel []int32, n int) []D {
	if sel == nil {
		for _, x := range src[:n] {
			dst = append(dst, D(x))
		}
		return dst
	}
	for _, i := range sel {
		dst = append(dst, D(src[i]))
	}
	return dst
}

func appendSel[T any](dst, src []T, sel []int32, n int) []T {
	if sel == nil {
		return append(dst, src[:n]...)
	}
	for _, i := range sel {
		dst = append(dst, src[i])
	}
	return dst
}

// asWidth returns a copy of the Int64 column c stored at width w, which
// must hold every value of c.
func (c *DenseColumn) asWidth(w int) *DenseColumn {
	d := NewDenseInts(w, c.Len())
	d.PutInts(0, c)
	return d
}

// IntRange returns the least and greatest value of an Int64 column, or
// (0, 0) when it is empty.
func (c *DenseColumn) IntRange() (lo, hi int64) {
	switch c.Width() {
	case 1:
		return intRange(c.I8)
	case 2:
		return intRange(c.I16)
	case 4:
		return intRange(c.I32)
	}
	return intRange(c.Ints)
}

func intRange[T Int](v []T) (lo, hi int64) {
	if len(v) == 0 {
		return 0, 0
	}
	l, h := v[0], v[0]
	for _, x := range v[1:] {
		l, h = min(l, x), max(h, x)
	}
	return int64(l), int64(h)
}

// Narrow returns c stored at the width rule's width: c itself when it
// already is, else a copy. Columns of other types return as they are.
func (c *DenseColumn) Narrow() *DenseColumn {
	if c.Typ != schema.Int64 {
		return c
	}
	if w := WidthFor(c.IntRange()); w != c.Width() {
		return c.asWidth(w)
	}
	return c
}

// Int64s returns the values of an Int64 column as int64s: c.Ints itself
// at width 8, else a widened copy.
func (c *DenseColumn) Int64s() []int64 {
	if c.Width() == 8 {
		return c.Ints
	}
	return c.asWidth(8).Ints
}

// PutInts overwrites positions at, at+1, ... of the Int64 column c with the
// values of the Int64 column src; c's width must hold every one of them.
func (c *DenseColumn) PutInts(at int, src *DenseColumn) {
	// Appending to the empty window at `at` writes in place: the window's
	// capacity is the rest of c, which must hold src.
	n := src.Len()
	if at+n > c.Len() {
		panic(fmt.Sprintf("storage: PutInts of %d values at %d overruns %d", n, at, c.Len()))
	}
	var w DenseColumn
	c.SliceInto(&w, at, at)
	w.appendInts(src, nil, n)
}

// Extend returns a copy of c followed by tail's values (same type), sized
// exactly. An Int64 copy is stored at the wider of the two widths.
func (c *DenseColumn) Extend(tail *DenseColumn) *DenseColumn {
	n := c.Len()
	if c.Typ == schema.Int64 {
		x := NewDenseInts(max(c.Width(), tail.Width()), n+tail.Len())
		x.PutInts(0, c)
		x.PutInts(n, tail)
		return x
	}
	x := NewDense(c.Typ, n+tail.Len())
	x.AppendSelected(c, nil, n)
	x.AppendSelected(tail, nil, tail.Len())
	return x
}

// Set stores v at position i, widening an Int64 column that does not hold
// v first.
func (c *DenseColumn) Set(i int, v Value) {
	switch c.Typ {
	case schema.Int64:
		if w := WidthFor(v.I, v.I); w > c.Width() {
			*c = *c.asWidth(w)
		}
		c.PutInts(i, &DenseColumn{Typ: schema.Int64, Ints: []int64{v.I}})
	case schema.Float64:
		c.Floats[i] = v.AsFloat()
	default:
		c.Strs[i] = v.S
	}
}

// MemSize returns the approximate heap bytes held by the column: the
// physical width of an Int64 column's values.
func (c *DenseColumn) MemSize() int64 {
	switch c.Typ {
	case schema.Int64:
		switch c.Width() {
		case 1:
			return int64(cap(c.I8))
		case 2:
			return int64(cap(c.I16)) * 2
		case 4:
			return int64(cap(c.I32)) * 4
		}
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
// covered. An Int64 column comes out at the width rule's width.
func (s *SparseColumn) ToDense(n int) *DenseColumn {
	d := NewDenseSized(s.Typ, n)
	if s.Typ == schema.Int64 {
		for i, r := range s.rows {
			d.Ints[r] = s.ints[i]
		}
		return d.Narrow()
	}
	for i, r := range s.rows {
		d.Set(int(r), s.at(i))
	}
	return d
}
