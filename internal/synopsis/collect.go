package synopsis

import (
	"sync"

	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/storage"
)

// Collector accumulates per-portion bounds during one tokenizing pass.
// Each portion's accumulator is created by Begin and used from a single
// worker goroutine; only Begin/Commit touch shared state. A nil *Collector
// is valid and inert, so callers wire it unconditionally.
type Collector struct {
	syn   *Synopsis
	gen   uint64
	cols  []int
	types []schema.Type

	mu  sync.Mutex
	acc map[int]*PortionAcc
}

// NewCollector prepares collection of bounds for cols (with matching
// types) into syn. Returns nil when syn is nil.
func NewCollector(syn *Synopsis, cols []int, types []schema.Type) *Collector {
	if syn == nil {
		return nil
	}
	syn.mu.RLock()
	gen := syn.gen
	syn.mu.RUnlock()
	return &Collector{syn: syn, gen: gen, cols: cols, types: types, acc: make(map[int]*PortionAcc)}
}

// colAcc accumulates one column's observations within one portion.
type colAcc struct {
	n          int64
	bad        bool // a non-comparable value (NaN) was seen; no bounds
	minI, maxI int64
	minF, maxF float64
	minS, maxS string
}

// PortionAcc accumulates one portion's observations. Nil-safe: a nil
// accumulator ignores observations. Usually created through a Collector's
// Begin; NewPortionAcc builds a standalone one for bounded passes (tail
// extension) that commit through Synopsis.ExtendTail instead.
type PortionAcc struct {
	info  scan.PortionInfo
	cols  []int
	types []schema.Type
	b     []colAcc
}

// NewPortionAcc prepares standalone accumulation of bounds for cols (with
// matching types) over one portion.
func NewPortionAcc(info scan.PortionInfo, cols []int, types []schema.Type) *PortionAcc {
	return &PortionAcc{info: info, cols: cols, types: types, b: make([]colAcc, len(cols))}
}

// Layout returns the synopsis' learned layout, pinned to the generation
// the collector captured: after a Drop (file edited mid-pass) it returns
// nil rather than a stale layout.
func (c *Collector) Layout() []scan.PortionInfo {
	if c == nil {
		return nil
	}
	return c.syn.layoutAt(&c.gen)
}

// AdoptLayout installs the scanner's portion layout at the collector's
// generation, so a layout built from a superseded file version is
// discarded instead of adopted.
func (c *Collector) AdoptLayout(ps []scan.PortionInfo) {
	if c == nil {
		return
	}
	c.syn.adoptLayout(c.gen, ps)
}

// Begin starts accumulation for one portion.
func (c *Collector) Begin(p scan.PortionInfo) *PortionAcc {
	if c == nil {
		return nil
	}
	a := NewPortionAcc(p, c.cols, c.types)
	c.mu.Lock()
	c.acc[p.Index] = a
	c.mu.Unlock()
	return a
}

// Observe records one parsed value for column position idx (an index into
// the collector's cols). Each (row, column) pair must be observed at most
// once — coverage is judged by comparing observation counts to the
// portion's row count. Loaders that parse straight into typed columns call
// the typed ObserveInt/ObserveFloat/ObserveString instead.
func (a *PortionAcc) Observe(idx int, v storage.Value) {
	if a == nil {
		return
	}
	switch a.types[idx] {
	case schema.Int64:
		a.ObserveInt(idx, v.I)
	case schema.Float64:
		a.ObserveFloat(idx, v.F)
	default:
		a.ObserveString(idx, v.S)
	}
}

// ObserveInt is Observe for an Int64 column.
func (a *PortionAcc) ObserveInt(idx int, v int64) {
	if a == nil {
		return
	}
	ca := &a.b[idx]
	if ca.n == 0 || v < ca.minI {
		ca.minI = v
	}
	if ca.n == 0 || v > ca.maxI {
		ca.maxI = v
	}
	ca.n++
}

// ObserveFloat is Observe for a Float64 column.
func (a *PortionAcc) ObserveFloat(idx int, v float64) {
	if a == nil {
		return
	}
	ca := &a.b[idx]
	if v != v { // NaN poisons ordering; drop the column's bounds
		ca.bad = true
	} else {
		if ca.n == 0 || v < ca.minF {
			ca.minF = v
		}
		if ca.n == 0 || v > ca.maxF {
			ca.maxF = v
		}
	}
	ca.n++
}

// ObserveString is Observe for a String column.
func (a *PortionAcc) ObserveString(idx int, v string) {
	if a == nil {
		return
	}
	ca := &a.b[idx]
	if ca.n == 0 || v < ca.minS {
		ca.minS = v
	}
	if ca.n == 0 || v > ca.maxS {
		ca.maxS = v
	}
	ca.n++
}

// Commit finishes one portion scanned to completion with rows tokenized
// rows: columns observed in every row contribute bounds; the rest stay
// uncovered. Portions that failed or were skipped must not be committed.
func (c *Collector) Commit(p scan.PortionInfo, rows int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	a := c.acc[p.Index]
	delete(c.acc, p.Index)
	c.mu.Unlock()
	if a == nil || rows <= 0 {
		return
	}
	// Even a bound-less commit matters: it supplies the portion's row
	// count, completing a lazily-counted layout.
	c.syn.commit(c.gen, p.Index, p, rows, a.Bounds(rows))
}

// Bounds extracts the accumulated bounds: columns observed in every one
// of rows rows contribute; the rest stay uncovered. Nil-safe.
func (a *PortionAcc) Bounds(rows int64) []ColBounds {
	if a == nil || rows <= 0 {
		return nil
	}
	var bounds []ColBounds
	for j := range a.b {
		ca := &a.b[j]
		if ca.n != rows || ca.bad {
			continue
		}
		b := ColBounds{Col: a.cols[j], Typ: a.types[j], MinExact: true, MaxExact: true}
		switch a.types[j] {
		case schema.Int64:
			b.MinI, b.MaxI = ca.minI, ca.maxI
		case schema.Float64:
			b.MinF, b.MaxF = ca.minF, ca.maxF
		default:
			b.MinS, b.MinExact = prefix(ca.minS)
			b.MaxS, b.MaxExact = prefix(ca.maxS)
		}
		bounds = append(bounds, b)
	}
	return bounds
}

// prefix truncates a string bound to StringPrefixLen; exact reports
// whether the stored bound is the full value.
func prefix(s string) (string, bool) {
	if len(s) <= StringPrefixLen {
		return s, true
	}
	return s[:StringPrefixLen], false
}
