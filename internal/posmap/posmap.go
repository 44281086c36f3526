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
// takes one of three forms:
//
//   - sealed: its recorded rows are one run from its first row (every
//     block a column load fills, and a column's last block). It holds a
//     base, a stride and one int16 residual per row, off = base +
//     slot·stride + res[slot]: frame-of-reference against the line through
//     the block's first and last offsets (Goldstein et al., ICDE 1998).
//   - narrow: an int64 base 2 GiB below its first write (never below 0)
//     and 1024 uint32 deltas from it; the sentinel noPos marks a row with
//     no position.
//   - wide: one absolute int64 per slot, -1 where unrecorded, once an
//     offset fell outside the narrow window.
//
// A block becomes sealed when its rows are complete: a column load seals
// each block in the worker that fills it, and every other write
// (RecordRun, RecordRows, LoadColumn) seals each block it leaves covered
// by one run from its first row; scattered rows leave theirs narrow. A
// block whose residuals do not fit int16 stays narrow or wide: a row of
// tens of KB pulls its neighbours that far off the line. A write into a
// sealed block, or one extending its run, lands in place when its
// residuals fit the block's line; any other unseals the block back to
// narrow (or wide). Every escape costs memory, never an
// answer.
//
// A position costs 2 B in a sealed block, 4 B in a narrow one and 8 B in a
// wide one. A block adds its head (a sealed block's base and stride, 16 B;
// another's base, 8 B) and an 8 B slot in the column's block index: 2.02 B
// per row of a sealed column, 4.02 B of a narrow one, and up to 4 KiB for
// a scattered row that is the first recorded in its block. Each interval
// of a column's coverage set adds 48 B: one per column after a column
// load, one per scattered row after a selective pass. MemSize, and what
// the Accountant hears, is that footprint, with the block and column
// indexes counted by the slots in use, so it is a function of what the
// map holds: a cold load, a Refresh tail and a warm restart that hold the
// same positions hold the same bytes. The budget cuts whole blocks.
//
// Writes go in place, in any order; the last writer wins. Positions are
// file offsets, never negative. A column load sets its positions through
// a Run while it tokenizes and installs the Run whole once the pass has
// succeeded; a partial pass records each portion's rows with one
// RecordRows per column when the portion ends. Each column's interval set
// of recorded rows is the source of truth for Covers, Entries and Pairs.
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
	"cmp"
	"math"
	"slices"
	"sync"

	"nodb/internal/intervals"
	"nodb/internal/metrics"
)

const (
	blockShift = 10
	blockRows  = 1 << blockShift
	noPos      = math.MaxUint32  // narrow delta of a row with no position
	window     = 1 << 31         // a narrow block's base sits this far below its first offset
	narrowCost = 8 + 4*blockRows // a narrow block's base and deltas
	sealedHead = 16              // a sealed block's base and stride
	// intervalCost is one interval of a column's coverage set: an AVL
	// node of 40 B (the interval, two children, a height), allocated in
	// Go's 48 B size class.
	intervalCost = 48
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

// block holds the positions of blockRows consecutive rows: sealed in res,
// narrow in d, or wide.
type block struct {
	base   int64
	stride int64    // sealed: the line's bytes per row
	res    []int16  // sealed: offset − (base + slot·stride) of slots 0..len-1
	d      []uint32 // narrow: offset − base, or noPos
	wide   []int64  // wide: absolute offset, or -1
}

// newBlock returns a narrow block with no position recorded.
func newBlock(base int64) *block {
	b := &block{base: base, d: make([]uint32, blockRows)}
	for i := range b.d {
		b.d[i] = noPos
	}
	return b
}

// newSealed returns offs, the positions of slots 0.., as a sealed block
// on the line through the first and last offset, or nil when a residual
// from that line does not fit int16.
func newSealed(offs []int64) *block {
	k := int64(len(offs))
	b := &block{base: offs[0], res: make([]int16, k)}
	if k > 1 {
		b.stride = (offs[k-1] - offs[0]) / (k - 1)
	}
	res, x := b.res[:len(offs)], b.base
	for i, off := range offs {
		r := off - x
		if r != int64(int16(r)) {
			return nil
		}
		res[i] = int16(r)
		x += b.stride
	}
	return b
}

// fill returns a block holding offs at slots 0..: sealed when the
// residuals fit, unsealed otherwise.
func fill(offs []int64) *block {
	if b := newSealed(offs); b != nil {
		return b
	}
	return unsealed(offs)
}

// unsealed returns a narrow block holding offs at slots 0.., or a wide one
// when an offset falls outside its window.
func unsealed(offs []int64) *block {
	b := newBlock(max(0, offs[0]-window))
	b.put(0, offs, math.MaxInt64)
	return b
}

// cost returns the bytes b holds.
func (b *block) cost() int64 {
	switch {
	case b.res != nil:
		return sealedHead + 2*int64(len(b.res))
	case b.wide != nil:
		return narrowCost + 4*blockRows
	}
	return narrowCost
}

// at returns the position of slot s, or -1 when it has none.
func (b *block) at(s int) int64 {
	switch {
	case b.res != nil:
		if s < len(b.res) {
			return b.base + int64(s)*b.stride + int64(b.res[s])
		}
	case b.wide != nil:
		return b.wide[s]
	case b.d[s] != noPos:
		return b.base + int64(b.d[s])
	}
	return -1
}

// decode writes the positions of slots s.. to dst; every one of them must
// be recorded.
func (b *block) decode(s int, dst []int64) {
	switch {
	case b.res != nil:
		x := b.base + int64(s)*b.stride
		for j, r := range b.res[s : s+len(dst)] {
			dst[j] = x + int64(r)
			x += b.stride
		}
	case b.wide != nil:
		copy(dst, b.wide[s:])
	default:
		for j, d := range b.d[s : s+len(dst)] {
			dst[j] = b.base + int64(d)
		}
	}
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

// RecordRun stores offsets for rows startRow, startRow+1, ... under one
// lock, and seals every block it leaves covered by one run from its first
// row. The run is cut at the first block that would cross the memory
// budget, so MemSize never exceeds it (the map is an opportunistic cache:
// losing an entry is always safe). offs is copied; the caller may reuse
// it.
//
// A write that extends a sealed block's run appends to it in place while
// its residuals fit the block's line; one that does not unseals the block
// to a narrow one (a 4 KiB allocation) and seals it again on a refitted
// line, reading all 1024 of its slots. A block sealed from one row has a
// flat line, so callers should hand over their rows as runs, a portion at
// a time, not row by row.
func (m *Map) RecordRun(col int, startRow int64, offs []int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putLocked(col, startRow, offs)
}

// RecordRows stores offs[i] as the position of rows[i] of col under one
// lock; rows ascend. Each run of consecutive rows goes in as one
// RecordRun does, at RecordRun's cost, so a block the rows fill from its
// first slot seals. A run the budget cuts loses its rows past the cut;
// later runs still land where they fit, in blocks already allocated.
func (m *Map) RecordRows(col int, rows, offs []int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.putRowsLocked(col, rows, offs)
}

// putRowsLocked is RecordRows' body. Caller holds m.mu for writing.
func (m *Map) putRowsLocked(col int, rows, offs []int64) {
	start := 0
	for i := 1; i <= len(rows); i++ {
		if i < len(rows) && rows[i] == rows[i-1]+1 {
			continue
		}
		m.putLocked(col, rows[start], offs[start:i])
		start = i
	}
}

// putLocked writes offs to rows start.. of col and returns how many it
// wrote before the budget cut the run; it seals each block the write
// leaves covered by one run from its first row. Caller holds m.mu for
// writing.
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
		b, fresh := blocks[bi], blocks[bi] == nil
		if fresh && s == 0 {
			b = newSealed(seg) // seg is all the block holds
		}
		if b == nil {
			b = newBlock(max(0, seg[0]-window))
		}
		if fresh {
			cost += b.cost()
		}
		// The segment adds at most one interval to the coverage set, and
		// none when it touches one already there.
		hi := row + int64(len(seg))
		room := m.maxBytes - m.bytes - added - cost - intervalCost
		if room < 0 && c.touches(row, hi) {
			room += intervalCost
		}
		d, ok := int64(0), room >= 0
		if !fresh || b.res == nil { // a fresh sealed block holds seg already
			d, ok = b.put(s, seg, room)
		}
		if !ok {
			break
		}
		blocks[bi], c.blocks = b, blocks
		added += cost + d
		ivs := c.cov.Len()
		c.cov.Add(intervals.Interval{Lo: row, Hi: hi})
		added += int64(c.cov.Len()-ivs) * intervalCost
		if b.res == nil {
			if k := c.prefix(bi, hi); k > 0 {
				added += b.seal(k)
			}
		}
		n += len(seg)
	}
	if n > 0 {
		m.cols, cols[col] = cols, c
		m.charge(added)
	}
	return n
}

// touches reports whether rows [lo, hi) overlap or adjoin an interval at
// either end, so that recording them adds no interval to the coverage.
func (c *colMap) touches(lo, hi int64) bool {
	return c.cov.Contains(lo-1) || c.cov.Contains(lo) || c.cov.Contains(hi)
}

// prefix returns k when block bi's recorded rows are exactly its first k,
// or 0. Row hi-1, in the block, is recorded: unless every row before it
// is, the block's rows are no such run, which a scattered write learns
// from the coverage alone. Otherwise the block's slots past hi-1 tell
// where the run ends and that no row follows it, without listing the
// block's gaps.
func (c *colMap) prefix(bi int, hi int64) int {
	lo := int64(bi) << blockShift
	if !c.cov.Covers(intervals.Interval{Lo: lo, Hi: hi}) {
		return 0
	}
	b, k := c.blocks[bi], int(hi-lo)
	for k < blockRows && b.at(k) >= 0 {
		k++
	}
	for s := k; s < blockRows; s++ {
		if b.at(s) >= 0 {
			return 0
		}
	}
	return k
}

// charge adds n allocated bytes to the map's footprint.
func (m *Map) charge(n int64) {
	m.bytes += n
	if m.acct != nil && n != 0 {
		m.acct.AddBytes(n)
	}
}

// grow returns s with a length of at least n, and the bytes of the slots
// that took, 8 B each; past its capacity s moves to an array of
// max(want, 2*cap) slots.
func grow[T any](s []*T, n, want int) ([]*T, int64) {
	if n <= len(s) {
		return s, 0
	}
	cost := 8 * int64(n-len(s))
	if n <= cap(s) {
		return s[:n], cost
	}
	t := make([]*T, n, max(want, 2*cap(s)))
	copy(t, s)
	return t, cost
}

// put writes seg to slots s.. of b and returns the bytes it added. A
// sealed block takes a write in place when the write's slots are recorded
// and its residuals fit; any other write unseals the block first. A
// narrow block takes a write only while room holds its wide escape. A
// write without the room it needs changes nothing and returns false.
func (b *block) put(s int, seg []int64, room int64) (int64, bool) {
	var d int64
	if b.res != nil {
		if d, ok := b.rewrite(s, seg, room); ok {
			return d, true
		}
		if narrowCost+4*blockRows-b.cost() > room {
			return 0, false
		}
		d = b.unseal()
		room -= d
	}
	if b.wide != nil {
		copy(b.wide[s:], seg)
		return d, true
	}
	if 4*blockRows > room {
		return 0, false
	}
	if b.narrow(s, seg) {
		return d, true
	}
	// Slots s.. hold garbage now; seg overwrites them below.
	w := make([]int64, blockRows)
	for i, x := range b.d {
		w[i] = -1
		if x != noPos {
			w[i] = b.base + int64(x)
		}
	}
	copy(w[s:], seg)
	b.wide, b.d = w, nil
	return d + 4*blockRows, true
}

// rewrite stores seg at slots s.. of sealed b, on its line, and returns
// the bytes that added. It can when the slots overwrite or extend b's run
// (s at most one past its last row), every residual fits int16, and room
// holds the new residuals; it changes nothing when it cannot.
func (b *block) rewrite(s int, seg []int64, room int64) (int64, bool) {
	grow := max(0, s+len(seg)-len(b.res))
	if s > len(b.res) || 2*int64(grow) > room {
		return 0, false
	}
	x := b.base + int64(s)*b.stride
	for _, off := range seg {
		if r := off - x; r != int64(int16(r)) {
			return 0, false
		}
		x += b.stride
	}
	b.res = append(b.res, make([]int16, grow)...)
	x = b.base + int64(s)*b.stride
	for i, off := range seg {
		b.res[s+i] = int16(off - x)
		x += b.stride
	}
	return 2 * int64(grow), true
}

// unseal turns sealed b into the narrow (or wide) block of the same
// positions and returns the bytes that added.
func (b *block) unseal() int64 {
	var buf [blockRows]int64
	offs := buf[:len(b.res)]
	b.decode(0, offs)
	old := b.cost()
	*b = *unsealed(offs)
	return b.cost() - old
}

// seal re-encodes unsealed b, whose recorded slots are its first k, as a
// sealed block when the residuals fit, and returns the bytes that saved
// (as a negative change).
func (b *block) seal(k int) int64 {
	var buf [blockRows]int64
	b.decode(0, buf[:k])
	sb := newSealed(buf[:k])
	if sb == nil {
		return 0
	}
	d := sb.cost() - b.cost()
	*b = *sb
	return d
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
// them. Each portion of the pass sets its rows, in order, through its own
// RunWriter, which buffers a block's rows and seals the block once it has
// all of them, so workers on disjoint portions need no lock. A block
// split between two portions, or a column's last block, reaches the run in
// parts, and the run seals it when it is installed.
type Run struct {
	blocks []*block   // by row >> blockShift; sized up front, or grown by a lone writer
	mu     sync.Mutex // guards parts
	parts  []runPart  // the rows of blocks no one writer filled
}

// runPart is the positions of rows row, row+1, ... of one block.
type runPart struct {
	row  int64
	offs []int64
}

// NewRun returns a run sized for n rows. Past them a writer grows the
// run, which only a lone writer may do.
func NewRun(n int64) *Run {
	return &Run{blocks: make([]*block, (n+blockRows-1)>>blockShift)}
}

// RunWriter buffers the positions of one portion of a Run's rows.
type RunWriter struct {
	r      *Run
	bi     int64 // the block buf holds rows of
	lo, hi int   // buf's filled slots
	buf    [blockRows]int64
}

// Writer returns a writer for one portion of r's rows.
func (r *Run) Writer() *RunWriter {
	return &RunWriter{r: r, bi: -1}
}

// Set records off as the position of row. A writer's rows ascend without
// a gap.
func (w *RunWriter) Set(row, off int64) {
	s := int(row & (blockRows - 1))
	if row>>blockShift != w.bi {
		w.Flush()
		w.bi, w.lo = row>>blockShift, s
	}
	w.buf[s] = off
	w.hi = s + 1
}

// Flush hands the buffered rows to the run: a whole block sealed, or a
// part of one. Call it after the portion's last Set.
func (w *RunWriter) Flush() {
	if w.hi <= w.lo {
		return
	}
	r, offs := w.r, w.buf[w.lo:w.hi]
	if len(offs) == blockRows {
		for w.bi >= int64(len(r.blocks)) {
			r.blocks = append(r.blocks, nil)
		}
		r.blocks[w.bi] = fill(offs)
	} else {
		r.mu.Lock()
		r.parts = append(r.parts, runPart{row: w.bi<<blockShift + int64(w.lo), offs: slices.Clone(offs)})
		r.mu.Unlock()
	}
	w.lo = w.hi
}

// finish returns r's blocks for rows 0..n-1, the parts sealed into theirs,
// or nil when one of those blocks has no rows set. r is spent.
func (r *Run) finish(n int64) []*block {
	blocks := make([]*block, (n+blockRows-1)>>blockShift)
	copy(blocks, r.blocks)
	slices.SortFunc(r.parts, func(a, b runPart) int { return cmp.Compare(a.row, b.row) })
	var buf [blockRows]int64
	for i := 0; i < len(r.parts); {
		bi := r.parts[i].row >> blockShift
		for ; i < len(r.parts) && r.parts[i].row>>blockShift == bi; i++ {
			copy(buf[r.parts[i].row&(blockRows-1):], r.parts[i].offs)
		}
		if bi < int64(len(blocks)) {
			blocks[bi] = fill(buf[:min(blockRows, n-bi<<blockShift)])
		}
	}
	if slices.Contains(blocks, nil) {
		return nil
	}
	return blocks
}

// Offsets returns the positions of rows 0..n-1 of r, every one of them
// Set and flushed; r is spent.
func (r *Run) Offsets(n int64) []int64 {
	blocks := r.finish(n)
	if blocks == nil {
		return nil
	}
	c := colMap{blocks: blocks}
	offs := make([]int64, n)
	c.decode(0, offs)
	return offs
}

// InstallRun publishes rows 0..n-1 of r, every one of them Set and
// flushed, as col's positions; r is spent. The run is adopted whole when
// col has no positions and the run fits the budget. Otherwise its
// positions are recorded like RecordRun's.
func (m *Map) InstallRun(col int, r *Run, n int64) {
	if n <= 0 {
		return
	}
	c := &colMap{blocks: r.finish(n)}
	if c.blocks == nil {
		return
	}
	c.cov.Add(intervals.Interval{Lo: 0, Hi: n})
	m.mu.Lock()
	defer m.mu.Unlock()
	if col >= 0 && int64(col) < m.maxBytes/8 && m.colLocked(col) == nil {
		cols, cost := grow(m.cols, col+1, col+1)
		cost += 8*int64(len(c.blocks)) + intervalCost
		for _, b := range c.blocks {
			cost += b.cost()
		}
		if m.bytes+cost <= m.maxBytes {
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
// snapshot). The rows go in as RecordRows puts them.
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
	if m.colLocked(col) == nil {
		m.putRowsLocked(col, rows, offs)
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
		s := int(r & (blockRows - 1))
		n := min(blockRows-s, len(dst))
		c.blocks[r>>blockShift].decode(s, dst[:n])
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
		if b := c.blocks[row>>blockShift]; b != nil {
			off = b.at(int(row & (blockRows - 1)))
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

// MemSize returns the bytes the map holds for positions.
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
