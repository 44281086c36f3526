// Package posmap implements the positional map: a partial index of
// (attribute, row) → absolute byte offset in the raw file.
//
// The paper (§4.1.5) observes that "every time we touch a file, we learn a
// bit more about its structure, e.g., the physical position of certain rows
// and attributes. ... Identifying and exploiting this knowledge in the
// future can bring significant benefits." The positional map is that
// knowledge, collected as a free side effect of tokenization: when a later
// query needs attribute k of a row whose attribute j (j ≤ k) position is
// known, the loader jumps directly to j and tokenizes only j..k, skipping
// the attributes before j entirely.
//
// The map is positional: the row id is the index. An attribute's positions
// live in blocks of 1024 rows, picked by row id, so Lookup is O(1). A block
// holds an int64 base offset and 1024 uint32 deltas from it; the sentinel
// noPos marks a row with no position. A block is allocated whole on its
// first write, with its base 2 GiB below that offset (never below 0). An
// offset outside the uint32 window turns the block wide: one absolute
// int64 per slot, -1 where unrecorded. That escape costs memory, never an
// answer.
//
// A position costs 4 B (8 B in a wide block) plus 16 B per block, for its
// base and its slot in the block index: 4.02 B per row of a fully covered
// column, and up to 4 KiB for a scattered Record that is the first in its
// block. MemSize, and what the Accountant hears, is that allocated
// footprint, so the budget cuts whole blocks.
//
// Writes go in place, in any order; the last writer wins. A column load
// Sets its positions into a Run while it tokenizes and installs the Run
// whole once the pass has succeeded. Each column's interval set of
// recorded rows is the source of truth for Covers, Entries and Pairs.
//
// Loads read the map a portion at a time: Offsets fills a batch of one
// attribute's positions under one read lock, so a positional load runs
// in parallel over the synopsis' learned portion layout, reads the file
// once and commits synopsis bounds like any other load; a map dropped
// mid-pass fails the pass at its next batch, and the load falls back to a
// plain scan.
//
// The map is partial by design: it covers only rows and attributes that
// past queries touched, and it stops growing at a configurable memory
// budget (unbounded maps would defeat the "minimum possible investment"
// goal).
package posmap

import (
	"math"
	"sync"
	"sync/atomic"

	"nodb/internal/intervals"
	"nodb/internal/metrics"
)

const (
	blockShift = 10
	blockRows  = 1 << blockShift
	noPos      = math.MaxUint32  // narrow delta of a row with no position
	window     = 1 << 31         // a new block's base sits this far below its first offset
	narrowCost = 8 + 4*blockRows // a narrow block's base and deltas
)

// Accountant receives the map's byte footprint and usage signals; the
// memory governor's handles satisfy it. All methods must be safe for
// concurrent use.
type Accountant interface {
	AddBytes(delta int64)
	SetBytes(n int64)
	Touch()
}

// Map records known byte positions of attributes in one raw file. It is
// safe for concurrent use; loaders record while queries look positions up.
type Map struct {
	mu       sync.RWMutex
	cols     []*colMap // by attribute; nil until a position is recorded
	maxBytes int64
	bytes    int64
	counters *metrics.Counters
	acct     Accountant
}

// colMap holds one attribute's positions.
type colMap struct {
	blocks []*block // by row >> blockShift; nil where no row was written
	cov    intervals.Set
}

// block holds the positions of blockRows consecutive rows: in d, or in
// wide once an offset fell outside d's window.
type block struct {
	base int64
	d    []uint32 // offset − base, or noPos
	wide []int64  // absolute offset, or -1
}

// newBlock returns a block with no position recorded.
func newBlock(base int64, wide bool) *block {
	b := &block{base: base}
	if wide {
		b.wide = make([]int64, blockRows)
		for i := range b.wide {
			b.wide[i] = -1
		}
	} else {
		b.d = make([]uint32, blockRows)
		for i := range b.d {
			b.d[i] = noPos
		}
	}
	return b
}

// SetAccountant attaches the byte-footprint sink (the memory governor's
// handle for this map). Call before the map is shared.
func (m *Map) SetAccountant(a Accountant) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.acct = a
	if a != nil {
		a.SetBytes(m.bytes)
	}
}

// New returns an empty positional map. maxBytes caps the map's memory; 0
// means a default of 64 MiB. counters may be nil.
func New(maxBytes int64, counters *metrics.Counters) *Map {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &Map{maxBytes: maxBytes, counters: counters}
}

// Record stores the byte offset of (col, row). A record that would grow
// the map past its memory budget is dropped silently (the map is an
// opportunistic cache, losing an entry is always safe).
func (m *Map) Record(col int, row, off int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putLocked(col, row, []int64{off})
}

// RecordRun stores offsets for rows startRow, startRow+1, ... under one
// lock, with one coverage interval and one accounting update. The run is
// cut at the first block that would cross the memory budget, so MemSize
// never exceeds it. offs is copied; the caller may reuse it.
func (m *Map) RecordRun(col int, startRow int64, offs []int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putLocked(col, startRow, offs)
}

// putLocked writes offs to rows start.. of col and returns how many it
// wrote before the budget cut the run. Caller holds m.mu for writing.
func (m *Map) putLocked(col int, start int64, offs []int64) int {
	// A column or block index slot costs 8 B: past maxBytes/8 none fits.
	slots := m.maxBytes / 8
	if col < 0 || start < 0 || len(offs) == 0 || int64(col) >= slots || start>>blockShift >= slots {
		return 0
	}
	cols, added := grow(m.cols, col+1, col+1)
	c := cols[col]
	if c == nil {
		c = &colMap{}
	}
	last := int((start + int64(len(offs)) - 1) >> blockShift)
	n := 0
	for n < len(offs) {
		row := start + int64(n)
		bi, s := int(row>>blockShift), int(row&(blockRows-1))
		seg := offs[n : n+min(blockRows-s, len(offs)-n)]
		blocks, cost := grow(c.blocks, bi+1, last+1)
		b := blocks[bi]
		if b == nil {
			b, cost = newBlock(max(0, seg[0]-window), false), cost+narrowCost
		}
		d, ok := b.put(s, seg, m.maxBytes-m.bytes-added-cost)
		if !ok {
			break
		}
		blocks[bi], c.blocks = b, blocks
		added += cost + d
		n += len(seg)
	}
	if n > 0 {
		m.cols, cols[col] = cols, c
		c.cov.Add(intervals.Interval{Lo: start, Hi: start + int64(n)})
		m.charge(added)
	}
	return n
}

// charge adds n allocated bytes to the map's footprint.
func (m *Map) charge(n int64) {
	m.bytes += n
	if m.acct != nil && n != 0 {
		m.acct.AddBytes(n)
	}
}

// grow returns s with a length of at least n, and the bytes that took: past
// its capacity, s moves to an array of max(want, 2*cap) slots of 8 B.
func grow[T any](s []*T, n, want int) ([]*T, int64) {
	if n <= cap(s) {
		return s[:max(n, len(s))], 0
	}
	t := make([]*T, n, max(want, 2*cap(s)))
	copy(t, s)
	return t, 8 * int64(cap(t)-cap(s))
}

// put writes seg to slots s.. of b and returns the bytes it allocated. A
// narrow block takes a write only while room holds its wide escape: it
// changes nothing and returns false otherwise.
func (b *block) put(s int, seg []int64, room int64) (int64, bool) {
	if b.wide != nil {
		copy(b.wide[s:], seg)
		return 0, true
	}
	if 4*blockRows > room {
		return 0, false
	}
	if b.narrow(s, seg) {
		return 0, true
	}
	// Slots s.. hold garbage now; seg overwrites them below.
	w := newBlock(0, true).wide
	for i, d := range b.d {
		if d != noPos {
			w[i] = b.base + int64(d)
		}
	}
	copy(w[s:], seg)
	b.wide, b.d = w, nil
	return 4 * blockRows, true
}

// narrow writes seg's deltas from b.base to slots s.. and reports whether
// every one fit.
func (b *block) narrow(s int, seg []int64) bool {
	d := b.d[s : s+len(seg)]
	var bad uint64
	for i, off := range seg {
		x := uint64(off - b.base)
		d[i] = uint32(x)
		bad |= (x+1)>>32 | x>>63 // x >= noPos, or off < base
	}
	return bad == 0
}

// A Run is one column's positions for rows 0..n-1 while a pass records
// them: narrow blocks with base 0, or wide ones for a file of 4 GiB or
// more. Workers setting disjoint rows of a run sized up front need no
// lock; past its size Set grows the run, which only a lone writer may do.
type Run struct {
	c        colMap
	wide     bool
	overflow atomic.Bool // a narrow run was handed an offset past 4 GiB
}

// NewRun returns a run sized for n rows of a file of size bytes.
func NewRun(n, size int64) *Run {
	r := &Run{wide: size >= noPos}
	r.c.blocks = make([]*block, (n+blockRows-1)>>blockShift)
	for i := range r.c.blocks {
		r.c.blocks[i] = newBlock(0, r.wide)
	}
	return r
}

// Set records off as the position of row.
func (r *Run) Set(row, off int64) {
	for row>>blockShift >= int64(len(r.c.blocks)) {
		r.c.blocks = append(r.c.blocks, newBlock(0, r.wide))
	}
	b, s := r.c.blocks[row>>blockShift], row&(blockRows-1)
	switch {
	case r.wide:
		b.wide[s] = off
	case uint64(off) < noPos:
		b.d[s] = uint32(off)
	default:
		r.overflow.Store(true)
	}
}

// Offsets returns the positions of rows 0..n-1 of r, every one of them
// Set, or nil when a narrow run was handed an offset past 4 GiB.
func (r *Run) Offsets(n int64) []int64 {
	if r.overflow.Load() {
		return nil
	}
	offs := make([]int64, n)
	r.c.decode(0, offs)
	return offs
}

// InstallRun publishes rows 0..n-1 of r, every one of them Set, as col's
// positions; r is spent. A narrow run is adopted whole when col has no
// positions and the run fits the budget. Otherwise its positions are
// recorded like RecordRun's, and a run that overflowed installs nothing.
func (m *Map) InstallRun(col int, r *Run, n int64) {
	if n <= 0 || r.overflow.Load() {
		return
	}
	c := &r.c
	nb := int((n + blockRows - 1) >> blockShift)
	c.blocks = append(make([]*block, 0, nb), c.blocks[:nb]...)
	c.cov.Add(intervals.Interval{Lo: 0, Hi: n})
	m.mu.Lock()
	defer m.mu.Unlock()
	if !r.wide && col >= 0 && int64(col) < m.maxBytes/8 && m.colLocked(col) == nil {
		cols, cost := grow(m.cols, col+1, col+1)
		if cost += 8*int64(nb) + narrowCost*int64(nb); m.bytes+cost <= m.maxBytes {
			m.cols = cols
			m.cols[col] = c
			m.charge(cost)
			return
		}
	}
	_, offs := c.pairs()
	m.putLocked(col, 0, offs)
}

// LoadColumn installs a column's positions from a snapshot: rows ascending
// and unique, offs parallel and non-negative, or the column is ignored. A
// column that has entries is left alone (live recording supersedes the
// snapshot). Each run of consecutive rows goes in as one RecordRun.
func (m *Map) LoadColumn(col int, rows, offs []int64) {
	if len(rows) == 0 || len(rows) != len(offs) {
		return
	}
	for i, r := range rows {
		if r < 0 || offs[i] < 0 || i > 0 && r <= rows[i-1] {
			return
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.colLocked(col) != nil {
		return
	}
	start := 0
	for i := 1; i <= len(rows); i++ {
		if i < len(rows) && rows[i] == rows[i-1]+1 {
			continue
		}
		if m.putLocked(col, rows[start], offs[start:i]) < i-start {
			return // the budget is spent
		}
		start = i
	}
}

// colLocked returns col's positions, or nil when none are recorded.
func (m *Map) colLocked(col int) *colMap {
	if uint(col) >= uint(len(m.cols)) {
		return nil
	}
	return m.cols[col]
}

// pairs decodes c's recorded positions in row order.
func (c *colMap) pairs() (rows, offs []int64) {
	rows, offs = make([]int64, c.cov.Total()), make([]int64, c.cov.Total())
	i := 0
	for _, iv := range c.cov.All() {
		n := int(iv.Len())
		c.decode(iv.Lo, offs[i:i+n])
		for j := range n {
			rows[i+j] = iv.Lo + int64(j)
		}
		i += n
	}
	return rows, offs
}

// decode writes the positions of rows r, r+1, ... to dst; every one of
// them must be recorded.
func (c *colMap) decode(r int64, dst []int64) {
	for len(dst) > 0 {
		b, s := c.blocks[r>>blockShift], int(r&(blockRows-1))
		n := min(blockRows-s, len(dst))
		if b.wide != nil {
			copy(dst[:n], b.wide[s:s+n])
		} else {
			for j, d := range b.d[s : s+n] {
				dst[j] = b.base + int64(d)
			}
		}
		dst, r = dst[n:], r+int64(n)
	}
}

// Offsets fills dst with col's positions of rows firstRow,
// firstRow+1, ..., under one read lock, and reports whether every one of
// those rows has a position; on false dst is unspecified. Positional
// loads fetch their anchors through it a batch at a time, so a map
// dropped mid-pass fails the pass at its next batch.
func (m *Map) Offsets(col int, firstRow int64, dst []int64) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := m.colLocked(col)
	if c == nil || firstRow < 0 || !c.cov.Covers(intervals.Interval{Lo: firstRow, Hi: firstRow + int64(len(dst))}) {
		return false
	}
	c.decode(firstRow, dst)
	if m.acct != nil {
		m.acct.Touch()
	}
	return true
}

// Lookup returns the byte offset of (col, row) if known.
func (m *Map) Lookup(col int, row int64) (int64, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	off := int64(-1)
	if c := m.colLocked(col); c != nil && row >= 0 && row>>blockShift < int64(len(c.blocks)) {
		if b, s := c.blocks[row>>blockShift], row&(blockRows-1); b != nil && b.wide != nil {
			off = b.wide[s]
		} else if b != nil && b.d[s] != noPos {
			off = b.base + int64(b.d[s])
		}
	}
	if off < 0 {
		if m.counters != nil {
			m.counters.AddPosMapMiss(1)
		}
		return 0, false
	}
	if m.counters != nil {
		m.counters.AddPosMapHit(1)
	}
	if m.acct != nil {
		m.acct.Touch()
	}
	return off, true
}

// CoveredCols returns the attribute indices with at least one recorded
// position, ascending.
func (m *Map) CoveredCols() []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []int
	for col, c := range m.cols {
		if c != nil {
			out = append(out, col)
		}
	}
	return out
}

// Covers reports whether every row of [lo, hi) has a recorded position for
// col.
func (m *Map) Covers(col int, lo, hi int64) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := m.colLocked(col)
	return c != nil && c.cov.Covers(intervals.Interval{Lo: lo, Hi: hi})
}

// Pairs returns the recorded (rows, offsets) of col, sorted by row, in
// fresh slices (snapshots serialize them).
func (m *Map) Pairs(col int) (rows, offs []int64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := m.colLocked(col)
	if c == nil {
		return nil, nil
	}
	return c.pairs()
}

// Entries returns the total number of recorded positions.
func (m *Map) Entries() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n int64
	for _, c := range m.cols {
		if c != nil {
			n += c.cov.Total()
		}
	}
	return int(n)
}

// MemSize returns the bytes the map has allocated for positions.
func (m *Map) MemSize() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// Drop discards all recorded positions (used when the raw file changed, or
// when the memory governor reclaims the map's footprint).
func (m *Map) Drop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cols = nil
	m.bytes = 0
	if m.acct != nil {
		m.acct.SetBytes(0)
	}
}
