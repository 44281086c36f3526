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
// Positions are installed once per pass, not once per value: a column
// load collects its offsets into a plain slice while it tokenizes and,
// once the pass has succeeded, hands each column to RecordRun — one lock,
// one coverage interval, one accounting update. A failed pass installs
// nothing. Record remains for loaders that retain scattered qualifying
// rows; an in-order Record appends without allocating.
//
// The map is partial by design: it covers only rows and attributes that
// past queries touched, and it stops growing at a configurable memory
// budget (unbounded maps would defeat the "minimum possible investment"
// goal).
package posmap

import (
	"slices"
	"sort"
	"sync"

	"nodb/internal/intervals"
	"nodb/internal/metrics"
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
	cols     map[int]*colMap
	maxBytes int64
	bytes    int64
	counters *metrics.Counters
	acct     Accountant
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

// colMap holds positions for one attribute as parallel (row, offset)
// slices sorted by row. Out-of-order arrivals are buffered in pendRows/
// pendOffs (arrival order) and folded in by one batched merge — a sorted
// insert per record would memmove the tail each time, turning interleaved
// recording (a wide scan after a selective one, or parallel portions)
// quadratic.
type colMap struct {
	rows []int64
	offs []int64
	cov  intervals.Set // covered row ranges

	pendRows []int64
	pendOffs []int64
}

// flushLimit bounds the pending buffer: merging costs O(n + p log p), so
// letting pending grow with the column keeps the total amortized
// near-linear.
func (c *colMap) flushLimit() int {
	n := len(c.rows) / 4
	if n < 1024 {
		n = 1024
	}
	return n
}

// New returns an empty positional map. maxBytes caps the map's memory; 0
// means a default of 64 MiB. counters may be nil.
func New(maxBytes int64, counters *metrics.Counters) *Map {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &Map{cols: make(map[int]*colMap), maxBytes: maxBytes, counters: counters}
}

// Record stores the byte offset of (col, row). Records arriving in
// ascending row order per column append in O(1); out-of-order records go
// to a pending buffer folded in by batched merges. Recording is dropped
// silently once the memory budget is reached (the map is an opportunistic
// cache, losing an entry is always safe).
func (m *Map) Record(col int, row, off int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.bytes >= m.maxBytes {
		return
	}
	c := m.cols[col]
	if c == nil {
		c = &colMap{}
		m.cols[col] = c
	}
	n := len(c.rows)
	if len(c.pendRows) == 0 {
		if n > 0 && c.rows[n-1] == row {
			c.offs[n-1] = off
			return
		}
		if n == 0 || row > c.rows[n-1] {
			c.rows = append(c.rows, row)
			c.offs = append(c.offs, off)
			c.cov.Add(intervals.Interval{Lo: row, Hi: row + 1})
			m.bytes += 16
			if m.acct != nil {
				m.acct.AddBytes(16)
			}
			return
		}
	}
	m.pendLocked(c, row, off)
}

// pendLocked buffers one out-of-order record and merges the backlog once
// it crosses the flush limit. Caller holds m.mu.
func (m *Map) pendLocked(c *colMap, row, off int64) {
	c.pendRows = append(c.pendRows, row)
	c.pendOffs = append(c.pendOffs, off)
	m.bytes += 16
	if m.acct != nil {
		m.acct.AddBytes(16)
	}
	if len(c.pendRows) >= c.flushLimit() {
		m.mergeLocked(c)
	}
}

// mergeLocked folds the pending buffer into the sorted slices in one
// pass: O(n + p log p) for p pending entries, with later arrivals winning
// duplicate rows. Caller holds m.mu.
func (m *Map) mergeLocked(c *colMap) {
	p := len(c.pendRows)
	if p == 0 {
		return
	}
	// Sort pending by row, stably by arrival, so the last arrival for a
	// row ends up last in its run and wins below.
	order := make([]int, p)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return c.pendRows[order[a]] < c.pendRows[order[b]] })

	rows := make([]int64, 0, len(c.rows)+p)
	offs := make([]int64, 0, len(c.rows)+p)
	i, j := 0, 0
	push := func(row, off int64) {
		if n := len(rows); n > 0 && rows[n-1] == row {
			offs[n-1] = off // newer record for the same row wins
			return
		}
		rows = append(rows, row)
		offs = append(offs, off)
	}
	for i < len(c.rows) || j < p {
		switch {
		case j >= p:
			push(c.rows[i], c.offs[i])
			i++
		case i >= len(c.rows) || c.pendRows[order[j]] <= c.rows[i]:
			r := c.pendRows[order[j]]
			push(r, c.pendOffs[order[j]])
			c.cov.Add(intervals.Interval{Lo: r, Hi: r + 1})
			if r == c.rowsAt(i) {
				i++ // pending supersedes the existing entry for this row
			}
			j++
		default:
			push(c.rows[i], c.offs[i])
			i++
		}
	}
	// Duplicates collapsed; release their accounted bytes.
	delta := int64(len(rows)-len(c.rows)-p) * 16
	c.rows, c.offs = rows, offs
	c.pendRows, c.pendOffs = nil, nil
	if delta != 0 {
		m.bytes += delta
		if m.acct != nil {
			m.acct.AddBytes(delta)
		}
	}
}

// rowsAt returns c.rows[i], or a sentinel when i is out of range.
func (c *colMap) rowsAt(i int) int64 {
	if i < len(c.rows) {
		return c.rows[i]
	}
	return -1 << 62
}

// flush folds every column's pending backlog in, so readers see the
// sorted view. Cheap when nothing is pending.
func (m *Map) flush() {
	m.mu.RLock()
	dirty := false
	for _, c := range m.cols {
		if len(c.pendRows) > 0 {
			dirty = true
			break
		}
	}
	m.mu.RUnlock()
	if !dirty {
		return
	}
	m.mu.Lock()
	for _, c := range m.cols {
		m.mergeLocked(c)
	}
	m.mu.Unlock()
}

// RecordRun stores offsets for rows startRow, startRow+1, ... as one bulk
// install: one lock acquisition, one accountant update, one coverage
// interval, and the column's slices grown once. Column loads call it once
// per loaded column after the pass succeeds. The run is cut where it would
// cross the memory budget, so MemSize never exceeds it. offs is copied;
// the caller may reuse it.
func (m *Map) RecordRun(col int, startRow int64, offs []int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if room := (m.maxBytes - m.bytes) / 16; int64(len(offs)) > room {
		offs = offs[:max(room, 0)]
	}
	if len(offs) == 0 {
		return
	}
	c := m.cols[col]
	if c == nil {
		c = &colMap{}
		m.cols[col] = c
	}
	added := int64(len(offs)) * 16
	m.bytes += added
	if m.acct != nil {
		m.acct.AddBytes(added)
	}
	if n := len(c.rows); len(c.pendRows) == 0 && (n == 0 || startRow > c.rows[n-1]) {
		c.rows = appendRowIDs(c.rows, startRow, len(offs))
		c.offs = append(c.offs, offs...)
		c.cov.Add(intervals.Interval{Lo: startRow, Hi: startRow + int64(len(offs))})
		return
	}
	// The run overlaps or precedes recorded rows: buffer it whole and fold
	// it in with a single merge (which releases the bytes of duplicates).
	c.pendRows = appendRowIDs(c.pendRows, startRow, len(offs))
	c.pendOffs = append(c.pendOffs, offs...)
	m.mergeLocked(c)
}

// appendRowIDs appends the n consecutive row ids from start to rows,
// growing it once.
func appendRowIDs(rows []int64, start int64, n int) []int64 {
	rows = slices.Grow(rows, n)
	for i := range n {
		rows = append(rows, start+int64(i))
	}
	return rows
}

// LoadColumn bulk-installs a column's positions from a snapshot: rows
// must be ascending and unique, offs parallel to it. A column that
// already has entries is left alone (live recording since the snapshot
// was written supersedes it), and the memory budget is honored the same
// way Record honors it. The slices are adopted, not copied.
func (m *Map) LoadColumn(col int, rows, offs []int64) {
	if len(rows) == 0 || len(rows) != len(offs) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cols[col] != nil || m.bytes >= m.maxBytes {
		return
	}
	c := &colMap{rows: rows, offs: offs}
	// Coverage is exactly the recorded rows; rebuild it run by run.
	runStart := rows[0]
	prev := rows[0]
	for _, r := range rows[1:] {
		if r != prev+1 {
			c.cov.Add(intervals.Interval{Lo: runStart, Hi: prev + 1})
			runStart = r
		}
		prev = r
	}
	c.cov.Add(intervals.Interval{Lo: runStart, Hi: prev + 1})
	m.cols[col] = c
	added := int64(len(rows)) * 16
	m.bytes += added
	if m.acct != nil {
		m.acct.AddBytes(added)
	}
}

// Columns returns every column's recorded (rows, offsets) pairs, for
// serialization. The slices are copies.
func (m *Map) Columns() map[int][2][]int64 {
	m.flush()
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[int][2][]int64, len(m.cols))
	for col, c := range m.cols {
		out[col] = [2][]int64{
			append([]int64(nil), c.rows...),
			append([]int64(nil), c.offs...),
		}
	}
	return out
}

// Lookup returns the byte offset of (col, row) if known.
func (m *Map) Lookup(col int, row int64) (int64, bool) {
	m.flush()
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := m.cols[col]
	if c == nil {
		m.miss()
		return 0, false
	}
	i := sort.Search(len(c.rows), func(i int) bool { return c.rows[i] >= row })
	if i < len(c.rows) && c.rows[i] == row {
		m.hit()
		return c.offs[i], true
	}
	m.miss()
	return 0, false
}

// BestAnchor returns, among the columns ≤ target whose position for row is
// known, the largest such column and its offset. A loader tokenizes from
// the anchor forward, paying only (target - anchor) attribute
// tokenizations instead of (target - 0).
func (m *Map) BestAnchor(target int, row int64) (col int, off int64, ok bool) {
	m.flush()
	m.mu.RLock()
	defer m.mu.RUnlock()
	for c := target; c >= 0; c-- {
		cm := m.cols[c]
		if cm == nil {
			continue
		}
		i := sort.Search(len(cm.rows), func(i int) bool { return cm.rows[i] >= row })
		if i < len(cm.rows) && cm.rows[i] == row {
			m.hit()
			return c, cm.offs[i], true
		}
	}
	m.miss()
	return 0, 0, false
}

// CoveredCols returns the attribute indices with at least one recorded
// position, ascending.
func (m *Map) CoveredCols() []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]int, 0, len(m.cols))
	for c := range m.cols {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// Covers reports whether every row of [lo, hi) has a recorded position for
// col.
func (m *Map) Covers(col int, lo, hi int64) bool {
	m.flush()
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := m.cols[col]
	if c == nil {
		return false
	}
	return c.cov.Covers(intervals.Interval{Lo: lo, Hi: hi})
}

// Pairs returns copies of the (rows, offsets) slices for col, sorted by
// row. Loaders iterate them to drive sequential positional access.
func (m *Map) Pairs(col int) (rows, offs []int64) {
	m.flush()
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := m.cols[col]
	if c == nil {
		return nil, nil
	}
	rows = append([]int64(nil), c.rows...)
	offs = append([]int64(nil), c.offs...)
	return rows, offs
}

// Entries returns the total number of recorded positions.
func (m *Map) Entries() int {
	m.flush()
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, c := range m.cols {
		n += len(c.rows)
	}
	return n
}

// MemSize returns the approximate heap bytes held by the map.
func (m *Map) MemSize() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// Full reports whether the memory budget is exhausted (recording stopped).
func (m *Map) Full() bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes >= m.maxBytes
}

// Drop discards all recorded positions (used when the raw file changed, or
// when the memory governor reclaims the map's footprint).
func (m *Map) Drop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cols = make(map[int]*colMap)
	m.bytes = 0
	if m.acct != nil {
		m.acct.SetBytes(0)
	}
}

func (m *Map) hit() {
	if m.counters != nil {
		m.counters.AddPosMapHit(1)
	}
	if m.acct != nil {
		m.acct.Touch()
	}
}

func (m *Map) miss() {
	if m.counters != nil {
		m.counters.AddPosMapMiss(1)
	}
}
