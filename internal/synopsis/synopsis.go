// Package synopsis implements per-portion scan synopses: zone maps over
// the horizontal portions of a raw file, learned as a free byproduct of
// any tokenizing pass.
//
// The paper's thesis is that every touch of the raw file should leave
// behind a structure that makes the next touch cheaper. The positional map
// (internal/posmap) remembers *where* attributes live; the synopsis
// remembers *what values* each portion can contain — per-portion, per-
// column min/max for numeric attributes and prefix bounds for strings,
// collected while the tokenizer is looking at the bytes anyway. A later
// query whose WHERE clause excludes a portion's whole value range skips
// the portion outright: zero bytes read, zero rows tokenized. Bounds are
// conservative by construction, so skipping never changes results — a
// skipped portion provably holds no qualifying row.
//
// Coverage is tracked per portion and per column: a column only gets
// bounds for a portion when the pass observed it in *every* row of that
// portion (early tuple elimination stops tokenizing a row at the first
// failed predicate, so trailing columns of a selective pass stay
// uncovered). A column touched in only some portions simply has a partial
// synopsis — pruning uses whatever bounds exist and scans the rest.
//
// The synopsis also owns the file's learned portion layout (boundaries,
// row counts, first-row ids), which later scans adopt via
// scan.Options.Layout to skip the boundary-discovery pre-pass and to seek
// straight to surviving portions.
package synopsis

import (
	"sync"

	"nodb/internal/scan"
	"nodb/internal/schema"
)

// StringPrefixLen caps the stored string bounds: longer observed values
// are truncated to this many bytes and flagged inexact, which the pruning
// rules account for.
const StringPrefixLen = 16

// Accountant receives the synopsis' byte footprint and usage signals; the
// memory governor's handles satisfy it. Methods must be safe for
// concurrent use.
type Accountant interface {
	AddBytes(delta int64)
	SetBytes(n int64)
	Touch()
}

// ColBounds are one column's value bounds within one portion. For string
// columns MinS is always a prefix of the true minimum (hence a valid lower
// bound); MaxS is a prefix of the true maximum and only an upper bound
// when MaxExact is true — otherwise the true maximum lies below
// prefixSuccessor(MaxS).
type ColBounds struct {
	Col                int
	Typ                schema.Type
	MinI, MaxI         int64
	MinF, MaxF         float64
	MinS, MaxS         string
	MinExact, MaxExact bool
}

// memSize approximates the bounds' heap footprint.
func (b ColBounds) memSize() int64 {
	return 64 + int64(len(b.MinS)+len(b.MaxS))
}

// PortionState is the exported state of one portion: its layout slot plus
// the fully-covered column bounds. Used for snapshot serialization.
type PortionState struct {
	Info scan.PortionInfo
	Cols []ColBounds
}

// portionSyn is one portion's live state.
type portionSyn struct {
	info scan.PortionInfo
	cols map[int]ColBounds
}

// Synopsis holds the learned portion layout and zone maps of one raw
// file. It is safe for concurrent use: scans commit bounds while other
// queries build pruners. Lifecycle follows the other auxiliary structures
// — dropped wholesale when the raw file's signature changes, evictable by
// the memory governor, serialized into snapshots.
type Synopsis struct {
	mu       sync.RWMutex
	gen      uint64 // bumped by Drop; stale collectors discard their commits
	portions []portionSyn
	complete bool // every portion's row count is known
	bytes    int64
	acct     Accountant
}

// New returns an empty synopsis.
func New() *Synopsis { return &Synopsis{} }

// SetAccountant attaches the byte-footprint sink (the governor's handle).
func (s *Synopsis) SetAccountant(a Accountant) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acct = a
	if a != nil {
		a.SetBytes(s.bytes)
	}
}

// AdoptLayout installs a portion layout (typically the one a scanner just
// built) at the current generation. The first adopted layout wins; later
// calls with a different boundary set are ignored — the layout is
// deterministic for a given file version, so a mismatch means a stale
// caller. Portions with unknown row counts (-1) are completed later by
// Commit. In-flight passes adopt through their Collector instead, which
// pins the generation it captured at creation so a Drop (file edited)
// between opening the scan and adopting discards the stale layout.
func (s *Synopsis) AdoptLayout(ps []scan.PortionInfo) {
	if s == nil {
		return
	}
	s.mu.RLock()
	gen := s.gen
	s.mu.RUnlock()
	s.adoptLayout(gen, ps)
}

func (s *Synopsis) adoptLayout(gen uint64, ps []scan.PortionInfo) {
	if s == nil || len(ps) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen != s.gen || s.portions != nil {
		return
	}
	s.portions = make([]portionSyn, len(ps))
	add := int64(0)
	for i, p := range ps {
		s.portions[i] = portionSyn{info: p}
		add += 48
	}
	s.bytes += add
	if s.acct != nil {
		s.acct.AddBytes(add)
	}
	s.recomputeCompleteLocked()
}

func (s *Synopsis) recomputeCompleteLocked() {
	s.complete = len(s.portions) > 0
	for i := range s.portions {
		if s.portions[i].info.Rows < 0 {
			s.complete = false
			return
		}
	}
}

// Layout returns the learned portion layout for scan.Options.Layout, or
// nil until every portion's row count is known. The slice is a copy.
func (s *Synopsis) Layout() []scan.PortionInfo {
	return s.layoutAt(nil)
}

// layoutAt is Layout with an optional generation pin: with gen non-nil
// the layout is returned only while the synopsis is still that
// generation.
func (s *Synopsis) layoutAt(gen *uint64) []scan.PortionInfo {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.complete || (gen != nil && *gen != s.gen) {
		return nil
	}
	out := make([]scan.PortionInfo, len(s.portions))
	for i := range s.portions {
		out[i] = s.portions[i].info
	}
	if s.acct != nil {
		s.acct.Touch()
	}
	return out
}

// TotalRows returns the file's row count per the layout, when complete.
func (s *Synopsis) TotalRows() (int64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.complete {
		return 0, false
	}
	var n int64
	for i := range s.portions {
		n += s.portions[i].info.Rows
	}
	return n, true
}

// Stats reports the synopsis' shape: portion count and the number of
// (portion, column) bounds held.
func (s *Synopsis) Stats() (portions, bounds int) {
	if s == nil {
		return 0, 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i := range s.portions {
		bounds += len(s.portions[i].cols)
	}
	return len(s.portions), bounds
}

// MemSize returns the approximate heap bytes held.
func (s *Synopsis) MemSize() int64 {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Drop discards everything (file edited, or the governor reclaimed the
// footprint). In-flight collectors notice via the generation counter and
// discard their commits.
func (s *Synopsis) Drop() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.portions = nil
	s.complete = false
	s.bytes = 0
	if s.acct != nil {
		s.acct.SetBytes(0)
	}
}

// Export serializes the synopsis state for snapshotting. Only portions
// with known row counts are exported (an incomplete layout is not worth
// persisting).
func (s *Synopsis) Export() []PortionState {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.complete {
		return nil
	}
	out := make([]PortionState, len(s.portions))
	for i := range s.portions {
		out[i] = PortionState{Info: s.portions[i].info}
		for _, b := range s.portions[i].cols {
			out[i].Cols = append(out[i].Cols, b)
		}
	}
	return out
}

// Import installs previously exported state (snapshot restore) after
// validating it: the layout must be contiguous with consistent prefix
// sums, and bounds must reference columns below ncols with matching
// types per the detector. Invalid input is ignored wholesale — the
// synopsis is an opportunistic cache and a cold start is always safe.
// No-op when a layout is already present (live learning supersedes).
func (s *Synopsis) Import(ps []PortionState, sch *schema.Schema) {
	if s == nil || len(ps) == 0 {
		return
	}
	var firstRow int64
	for i, p := range ps {
		if p.Info.End <= p.Info.Off || p.Info.Rows < 0 || p.Info.FirstRow != firstRow {
			return
		}
		if i > 0 && p.Info.Off != ps[i-1].Info.End {
			return
		}
		firstRow += p.Info.Rows
		for _, b := range p.Cols {
			if b.Col < 0 || b.Col >= sch.NumCols() || sch.Columns[b.Col].Type != b.Typ {
				return
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.portions != nil {
		return
	}
	s.portions = make([]portionSyn, len(ps))
	add := int64(0)
	for i, p := range ps {
		info := p.Info
		info.Index = i
		s.portions[i] = portionSyn{info: info}
		add += 48
		for _, b := range p.Cols {
			if s.portions[i].cols == nil {
				s.portions[i].cols = make(map[int]ColBounds, len(p.Cols))
			}
			s.portions[i].cols[b.Col] = b
			add += b.memSize()
		}
	}
	s.bytes += add
	if s.acct != nil {
		s.acct.AddBytes(add)
	}
	s.recomputeCompleteLocked()
}

// ExtendTail appends tail portions — learned by a bounded scan of the
// bytes a prefix-stable growth appended — to a complete layout that ends
// exactly at the first new portion's Off. The new portions must be
// contiguous with non-negative row counts and FirstRow ids continuing the
// existing total. Reports whether the extension was applied; on any
// mismatch the synopsis is left untouched so the caller can Drop it and
// relearn from scratch.
func (s *Synopsis) ExtendTail(ps []PortionState) bool {
	if s == nil || len(ps) == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.complete || len(s.portions) == 0 {
		return false
	}
	last := s.portions[len(s.portions)-1].info
	var total int64
	for i := range s.portions {
		total += s.portions[i].info.Rows
	}
	end, firstRow := last.End, total
	for _, p := range ps {
		if p.Info.Off != end || p.Info.End <= p.Info.Off || p.Info.Rows < 0 || p.Info.FirstRow != firstRow {
			return false
		}
		end = p.Info.End
		firstRow += p.Info.Rows
	}
	add := int64(0)
	for _, p := range ps {
		info := p.Info
		info.Index = len(s.portions)
		ns := portionSyn{info: info}
		add += 48
		for _, b := range p.Cols {
			if ns.cols == nil {
				ns.cols = make(map[int]ColBounds, len(p.Cols))
			}
			ns.cols[b.Col] = b
			add += b.memSize()
		}
		s.portions = append(s.portions, ns)
	}
	s.bytes += add
	if s.acct != nil {
		s.acct.AddBytes(add)
		s.acct.Touch()
	}
	return true
}

// commit installs one portion's bounds, learned by a completed portion
// scan. Stale commits (generation mismatch, unknown portion) are
// discarded.
func (s *Synopsis) commit(gen uint64, idx int, info scan.PortionInfo, rows int64, bounds []ColBounds) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen != s.gen || idx < 0 || idx >= len(s.portions) || s.portions[idx].info.Off != info.Off {
		return
	}
	p := &s.portions[idx]
	if p.info.Rows < 0 {
		p.info.Rows = rows
		s.recomputeCompleteLocked()
	}
	if p.info.Rows != rows {
		// A layout/count disagreement means something is off (e.g. the
		// file changed under DisableRevalidation); keep nothing.
		return
	}
	var delta int64
	for _, b := range bounds {
		if old, ok := p.cols[b.Col]; ok {
			delta -= old.memSize()
		}
		if p.cols == nil {
			p.cols = make(map[int]ColBounds, len(bounds))
		}
		p.cols[b.Col] = b
		delta += b.memSize()
	}
	s.bytes += delta
	if s.acct != nil {
		s.acct.AddBytes(delta)
		s.acct.Touch()
	}
}
