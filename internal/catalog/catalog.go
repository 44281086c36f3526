// Package catalog tracks the raw files linked into the engine and all
// state derived from them: which columns are loaded (fully or partially),
// which value regions the adaptive store covers, positional maps, scan
// synopses, and the file signatures used to detect edits.
//
// The paper's update policy (§5.4, "one easy solution") is implemented
// verbatim: derived state is auxiliary data "we are not afraid to lose";
// when the raw file changes, everything derived from it is dropped and
// rebuilt on demand. The exception is an append: when a re-check
// certifies prefix-stable growth (GrownFrom), the catalog keeps what it
// learned and installs what a tail pass — the loader's, wired in through
// Options.TailPass — learned by scanning just the appended bytes. The
// catalog certifies and installs; it never tokenizes the raw file itself.
//
// Life-time management (§5.1.3) is delegated to the memory governor
// (internal/govern) when one is configured: every dense column, sparse
// column, positional map and synopsis registers its byte footprint
// and rebuild-cost estimate, and the governor evicts at structure
// granularity — "the only cost is that of having to reload this data part
// if it is needed again in the future." A governor-less catalog
// (ablations, baselines) simply grows unbounded.
//
// With a snapshot store configured (internal/snapshot), the catalog also
// manages the disk tier: each table serializes its auxiliary structures
// on SaveSnapshot, restores them lazily via Prepare on the first query
// that wants them, and the governor's evictions spill the expensive
// positional map to disk instead of discarding it outright — reload cost
// becomes a deserialize.
package catalog

import (
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"nodb/internal/errs"
	"nodb/internal/govern"
	"nodb/internal/intervals"
	"nodb/internal/metrics"
	"nodb/internal/posmap"
	"nodb/internal/scan"
	"nodb/internal/schema"
	"nodb/internal/snapshot"
	"nodb/internal/storage"
	"nodb/internal/synopsis"
	"nodb/internal/vfs"
)

// Signature fingerprints a raw file cheaply: size, mtime, a CRC of the
// first 4 KiB and a CRC of the last 4 KiB. Any user edit that changes
// content near the top or the bottom, length or timestamp invalidates
// derived state. The tail CRC additionally closes the hole where a
// same-size rewrite past the prefix went unnoticed until the next mtime
// check, and — re-read at the old length — certifies prefix-stable
// growth (appends), which extends derived state instead of dropping it.
type Signature struct {
	Size    int64
	ModTime int64
	Prefix  uint32
	// Tail is the CRC of the last min(4 KiB, Size) bytes.
	Tail uint32
}

// sigProbeLen is how many bytes each signature CRC covers.
const sigProbeLen = 4096

// SignFile computes the signature of the file at path.
func SignFile(path string) (Signature, error) {
	return SignFileFS(nil, path)
}

// SignFileFS is SignFile through an explicit filesystem.
func SignFileFS(fsys vfs.FS, path string) (Signature, error) {
	st, err := vfs.Default(fsys).Stat(path)
	if err != nil {
		return Signature{}, errs.Wrap(errs.ErrRawIO, "catalog sign", path, err)
	}
	f, err := vfs.Default(fsys).Open(path)
	if err != nil {
		return Signature{}, errs.Wrap(errs.ErrRawIO, "catalog sign", path, err)
	}
	defer f.Close()
	size := st.Size()
	pEnd := int64(sigProbeLen)
	if size < pEnd {
		pEnd = size
	}
	prefix, err := crcRange(f, 0, pEnd)
	if err != nil {
		return Signature{}, errs.Wrap(errs.ErrRawIO, "catalog sign", path, err)
	}
	tStart := size - sigProbeLen
	if tStart < 0 {
		tStart = 0
	}
	tail, err := crcRange(f, tStart, size)
	if err != nil {
		return Signature{}, errs.Wrap(errs.ErrRawIO, "catalog sign", path, err)
	}
	return Signature{
		Size:    size,
		ModTime: st.ModTime().UnixNano(),
		Prefix:  prefix,
		Tail:    tail,
	}, nil
}

// crcRange CRCs the bytes [off, end) of f. A file shrunk concurrently
// yields a CRC over the shorter read — a signature that matches nothing,
// which is the right failure mode.
func crcRange(f vfs.File, off, end int64) (uint32, error) {
	if end <= off {
		return crc32.ChecksumIEEE(nil), nil
	}
	buf := make([]byte, end-off)
	n, err := f.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return 0, err
	}
	return crc32.ChecksumIEEE(buf[:n]), nil
}

// GrownFrom reports whether the file at path is a prefix-stable growth of
// the version old describes: strictly larger, byte-identical over old's
// signed prefix and tail ranges, and with old's content ending in a
// newline, so the appended bytes start on a fresh row boundary. ModTime
// is deliberately ignored — an append always bumps it.
func GrownFrom(path string, old Signature) (bool, error) {
	return GrownFromFS(nil, path, old)
}

// GrownFromFS is GrownFrom through an explicit filesystem.
func GrownFromFS(fsys vfs.FS, path string, old Signature) (bool, error) {
	if old.Size <= 0 {
		return false, nil
	}
	st, err := vfs.Default(fsys).Stat(path)
	if err != nil {
		return false, errs.Wrap(errs.ErrRawIO, "catalog grown", path, err)
	}
	if st.Size() <= old.Size {
		return false, nil
	}
	f, err := vfs.Default(fsys).Open(path)
	if err != nil {
		return false, errs.Wrap(errs.ErrRawIO, "catalog grown", path, err)
	}
	defer f.Close()
	pEnd := int64(sigProbeLen)
	if old.Size < pEnd {
		pEnd = old.Size
	}
	if crc, err := crcRange(f, 0, pEnd); err != nil || crc != old.Prefix {
		return false, errs.Wrap(errs.ErrRawIO, "catalog grown", path, err)
	}
	tStart := old.Size - sigProbeLen
	if tStart < 0 {
		tStart = 0
	}
	if crc, err := crcRange(f, tStart, old.Size); err != nil || crc != old.Tail {
		return false, errs.Wrap(errs.ErrRawIO, "catalog grown", path, err)
	}
	var last [1]byte
	if _, err := f.ReadAt(last[:], old.Size-1); err != nil {
		return false, nil
	}
	return last[0] == '\n', nil
}

// Region records one covered area of the adaptive store for a table: the
// per-column value ranges a past partial load qualified on, and the
// columns whose qualifying values were materialized.
type Region struct {
	// Ranges maps column index → the half-open int64 value range the
	// load's predicates allowed on that column. A column absent from the
	// map was unconstrained (full range).
	Ranges map[int]intervals.Interval
	// Cols are the columns whose values were materialized for qualifying
	// rows, ascending.
	Cols []int
}

// Covers reports whether r fully covers the query region q: every column q
// needs was materialized, and q's allowed ranges are contained in r's on
// every column r constrained. (Conservative: containment is tested against
// single regions, not unions.)
func (r Region) Covers(q Region) bool {
	for _, c := range q.Cols {
		if !containsInt(r.Cols, c) {
			return false
		}
	}
	for col, rr := range r.Ranges {
		qr, ok := q.Ranges[col]
		if !ok {
			// q does not constrain col → q needs the full range there.
			return false
		}
		if !rr.ContainsInterval(qr) {
			return false
		}
	}
	return true
}

func containsInt(sorted []int, x int) bool {
	i := sort.SearchInts(sorted, x)
	return i < len(sorted) && sorted[i] == x
}

// ColState is the adaptive-store state of one attribute.
type ColState struct {
	// Dense is non-nil when the column is fully loaded.
	Dense *storage.DenseColumn
	// Sparse holds partially loaded values (Partial Loads V2).
	Sparse *storage.SparseColumn
}

// Table is one linked raw file and everything derived from it.
type Table struct {
	mu sync.RWMutex

	// loadMu serializes loading operations that read-modify-write shared
	// store state (partial-load merges, column loads). This is
	// the paper's §5.4 scenario — "multiple queries might be asking for
	// the same column at the same time ... have to touch and update the
	// same loaded table" — resolved with a plain per-table lock.
	loadMu sync.Mutex

	name   string
	path   string
	schema *schema.Schema
	sig    Signature
	detect schema.DetectOptions // options the schema was detected with (Refresh re-uses them)
	fs     vfs.FS               // filesystem for raw-file access; nil = real disk

	// Ingest counters (guarded by mu): appended rows/bytes folded in by
	// incremental tail extensions, how many extensions ran, and when the
	// last one finished (unix nanos).
	appendedRows  int64
	appendedBytes int64
	refreshes     int64
	lastRefresh   int64

	rows    int64 // -1 until discovered by a scan
	cols    []ColState
	regions []Region
	touches map[int]int // per-column query touch counts (auto policy)

	// PosMap is the positional map for the raw file; Syn the per-portion
	// scan synopsis (zone maps + learned portion layout). Both survive
	// column eviction but not file invalidation.
	PosMap *posmap.Map
	Syn    *synopsis.Synopsis

	// Memory-governor accounting: one handle per registered adaptive
	// structure. denseH/sparseH are aligned with cols; posmapH and synH
	// are persistent (their structures survive eviction, emptied).
	gov      *govern.Governor
	denseH   []*govern.Handle
	sparseH  []*govern.Handle
	posmapH  *govern.Handle
	synH     *govern.Handle
	released bool // releaseGoverned ran (table replaced/unlinked): no re-registration

	counters *metrics.Counters
	tailPass TailPass // folds appended rows in; nil: growth invalidates

	// Disk cache tier (nil when no cache dir is configured). snapMu
	// serializes snapshot I/O (restore, save) and is always acquired
	// BEFORE mu; eviction callbacks, which hold mu, only touch the spill
	// flags and write spill files — never the reader.
	snap    *snapshot.Store
	snapKey string

	snapMu         sync.Mutex
	snapInit       bool             // first Prepare ran (guarded by snapMu)
	snapReader     *snapshot.Reader // guarded by snapMu
	posMapRestored bool             // guarded by snapMu
	lastSaveFP     string           // fingerprint of the last saved state (guarded by snapMu)
	pendingExtend  *Signature       // snapshot restored from this older prefix; tail extension due (guarded by snapMu)

	// snapPending is the lock-free fast path: false means Prepare has
	// nothing to do (no snapshot sections left, no spills outstanding).
	snapPending atomic.Bool

	// snapDenseBytes maps column → on-disk payload size of its restorable
	// dense section; denseRebuildCostLocked prices re-admission with it.
	// Guarded by mu. spillPM flags the positional map's spill file,
	// written by eviction.
	snapDenseBytes map[int]int64
	spillPM        bool
}

// LockLoads serializes a loading operation against the table; pair with
// UnlockLoads. Queries that only read immutable dense columns do not need
// it.
func (t *Table) LockLoads() { t.loadMu.Lock() }

// UnlockLoads releases LockLoads.
func (t *Table) UnlockLoads() { t.loadMu.Unlock() }

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

// Path returns the linked raw file path.
func (t *Table) Path() string { return t.path }

// Schema returns the detected schema.
func (t *Table) Schema() *schema.Schema { return t.schema }

// Signature returns the raw file's signature as of the last
// (re)validation. Table stats and the result cache's keys carry it, so a
// reader can tell stale state from live state.
func (t *Table) Signature() Signature {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.sig
}

// NumRows returns the row count, or -1 when not yet discovered.
func (t *Table) NumRows() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// SetNumRows records the row count discovered by a scan and refreshes the
// rebuild-cost estimates that depend on it.
func (t *Table) SetNumRows(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	known := t.rows > 0
	t.rows = n
	if t.gov != nil && !known && n > 0 {
		t.refreshCostsLocked()
	}
}

// The rates the catalog's rebuild-cost estimates are built from. The
// governor ranks eviction victims by bytes per estimated second, so only
// their ratios matter: a full tokenizing pass against a snapshot read
// against a spill write.
const (
	rawReadBps       = 120e6 // sequential raw-file read, bytes/s
	tokenizeRowSec   = 25e-9 // find one row boundary
	tokenizeAttrSec  = 12e-9 // locate one attribute within a row
	parseValueSec    = 20e-9 // convert one field to a typed value
	snapshotReadBps  = 180e6 // snapshot/spill file read, bytes/s
	snapshotWriteBps = 90e6  // snapshot/spill file write, bytes/s
)

// fullPassSecLocked estimates the seconds of one full tokenizing pass
// over the raw file — the unit every rebuild-cost estimate is built from.
// Row count falls back to a bytes-per-row guess before the first scan
// discovers it.
func (t *Table) fullPassSecLocked() float64 {
	rows := t.rows
	if rows <= 0 {
		rows = t.sig.Size / 32
		if rows < 1 {
			rows = 1
		}
	}
	ncols := float64(len(t.schema.Columns))
	return float64(t.sig.Size)/rawReadBps +
		float64(rows)*(tokenizeRowSec+ncols*tokenizeAttrSec+parseValueSec)
}

// denseRebuildCostLocked estimates re-loading one evicted dense column: a
// full tokenizing pass normally, an order of magnitude cheaper when the
// positional map knows where every value lives (the paper's point — cached
// columns are cheap to lose precisely because the map survives them), and
// cheaper still — a straight deserialize — when the snapshot cache holds a
// valid copy of the column on disk.
func (t *Table) denseRebuildCostLocked(col int) float64 {
	if b, ok := t.snapDenseBytes[col]; ok && b > 0 {
		return float64(b) / snapshotReadBps
	}
	full := t.fullPassSecLocked()
	if t.PosMap != nil && t.rows > 0 && t.PosMap.Covers(col, 0, t.rows) {
		return full / 8
	}
	return full
}

// spillRoundTripSec prices evicting a structure through the disk cache
// tier: one sequential write now plus one sequential read at re-admission.
func spillRoundTripSec(bytes int64) float64 {
	return float64(bytes)/snapshotWriteBps + float64(bytes)/snapshotReadBps
}

// refreshCostsLocked re-estimates every registered structure's rebuild
// cost after the row count (or coverage) changed. Without a disk tier the
// positional map is the expensive one: it accumulated over many query
// passes, and recovering it means re-tokenizing everything those passes
// touched. With a cache dir configured, eviction *spills* instead of
// discarding, so the same structures are priced at a serialize/deserialize
// round trip — the governor then happily trades them out under pressure.
func (t *Table) refreshCostsLocked() {
	full := t.fullPassSecLocked()
	for c, h := range t.denseH {
		if h != nil {
			h.SetCost(t.denseRebuildCostLocked(c))
		}
	}
	for _, h := range t.sparseH {
		if h != nil {
			h.SetCost(full)
		}
	}
	if t.posmapH != nil {
		if t.snap != nil {
			t.posmapH.SetCost(spillRoundTripSec(t.PosMap.MemSize()))
		} else {
			t.posmapH.SetCost(4 * full)
		}
	}
	if t.synH != nil {
		// The synopsis rebuilds itself as a free byproduct of the next
		// tokenizing pass; it is priced far below everything else so the
		// governor reclaims it first under pressure.
		t.synH.SetCost(full / 64)
	}
}

// Dense returns the dense column for col, or nil.
func (t *Table) Dense(col int) *storage.DenseColumn {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.cols[col].Dense
}

// SetDense installs a fully loaded column.
func (t *Table) SetDense(col int, c *storage.DenseColumn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cols[col].Dense = c
	t.cols[col].Sparse = nil // dense supersedes partial state
	if t.gov == nil || t.released {
		// A released table (replaced or unlinked mid-query) must not
		// re-enter the governor registry: the orphan and its data are
		// garbage once the in-flight query finishes.
		return
	}
	t.sparseH[col].Release()
	t.sparseH[col] = nil
	t.denseH[col].Release() // re-load replaces the old registration
	var h *govern.Handle
	h = t.gov.Register(govern.KindColumn, fmt.Sprintf("%s.c%d", t.name, col), func() bool { return t.evictDense(col, h) })
	h.SetBytes(c.MemSize())
	h.SetCost(t.denseRebuildCostLocked(col))
	t.denseH[col] = h
}

// evictDense is the governor's victim callback for a dense column: drop
// the column and release its handle. The
// next query that needs the column re-loads it from the raw file. The
// pin re-check happens under t.mu, which excludes Table.Pin, so a pinned
// column is vetoed rather than freed mid-scan. h is the handle the
// eviction was chosen for: the identity check vetoes a stale eviction
// racing a Revalidate that replaced (or shrank) the handle arrays.
func (t *Table) evictDense(col int, h *govern.Handle) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if col >= len(t.denseH) || t.denseH[col] != h || h.Pinned() || t.cols[col].Dense == nil {
		return false
	}
	t.cols[col].Dense = nil
	// Dense may have been backing coverage regions (it supersedes sparse
	// state); a region whose column lost its data must not survive it.
	if t.cols[col].Sparse == nil {
		kept := t.regions[:0]
		for _, r := range t.regions {
			if !containsInt(r.Cols, col) {
				kept = append(kept, r)
			}
		}
		t.regions = kept
	}
	t.denseH[col].Release()
	t.denseH[col] = nil
	return true
}

// evictSparse is the victim callback for a retained partial-load column:
// drop the sparse values and every covered region that promised them, so
// coverage never outlives its backing data.
func (t *Table) evictSparse(col int, h *govern.Handle) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if col >= len(t.sparseH) || t.sparseH[col] != h || h.Pinned() || t.cols[col].Sparse == nil {
		return false
	}
	t.cols[col].Sparse = nil
	kept := t.regions[:0]
	for _, r := range t.regions {
		if !containsInt(r.Cols, col) {
			kept = append(kept, r)
		}
	}
	t.regions = kept
	t.sparseH[col].Release()
	t.sparseH[col] = nil
	return true
}

// evictPosMap drops the positional map's contents (the container
// survives, empty, and keeps accounting). The pin check and the drop run
// under t.mu; Table.Pin takes t.mu too, so pin-then-read is ordered
// against this.
//
// With a snapshot store configured, eviction spills instead of
// discarding: the positional map is serialized to a spill file (it took
// many query passes to learn; re-admitting it is a deserialize, not a
// re-learn). The next query that would profit re-admits it via Prepare.
// A failed spill degrades to the plain drop — losing auxiliary state is
// always safe.
func (t *Table) evictPosMap(h *govern.Handle) bool {
	t.mu.Lock()
	if t.posmapH != h || h.Pinned() {
		t.mu.Unlock()
		return false
	}
	// Capture the sections (a copy) and drop under the lock; the spill
	// file is written after release so a large map's serialization never
	// stalls queries on the table. A failed write degrades to the plain
	// eviction that already happened — losing auxiliary state is safe.
	var tbl *snapshot.Table
	var sig Signature
	if t.snap != nil && t.PosMap.MemSize() > 0 {
		tbl = &snapshot.Table{Rows: t.rows, PosMap: posmapSections(t.PosMap)}
		sig = t.sig
	}
	t.PosMap.Drop()
	t.mu.Unlock()
	if tbl != nil {
		if err := t.snap.SaveSpill(t.snapKey, snapSig(sig), tbl); err == nil {
			t.mu.Lock()
			t.spillPM = true
			t.snapPending.Store(true)
			t.mu.Unlock()
		}
	}
	return true
}

// evictSynopsis drops the synopsis' contents (the container survives,
// empty, like the positional map). No spill tier: the synopsis is tiny and
// rebuilds for free on the next pass, so serializing it out of band is not
// worth a file.
func (t *Table) evictSynopsis(h *govern.Handle) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.synH != h || h.Pinned() {
		return false
	}
	t.Syn.Drop()
	return true
}

// snapSig and catSig convert between the catalog's file signature and the
// snapshot format's.
func snapSig(s Signature) snapshot.Sig {
	return snapshot.Sig{Size: s.Size, ModTime: s.ModTime, Prefix: s.Prefix, Tail: s.Tail}
}

func catSig(s snapshot.Sig) Signature {
	return Signature{Size: s.Size, ModTime: s.ModTime, Prefix: s.Prefix, Tail: s.Tail}
}

// posmapSections serializes a positional map's columns.
func posmapSections(m *posmap.Map) []snapshot.PosMapCol {
	var out []snapshot.PosMapCol
	for _, col := range m.CoveredCols() {
		rows, offs := m.Pairs(col)
		out = append(out, snapshot.PosMapCol{Col: col, Rows: rows, Offs: offs})
	}
	return out
}

// synopsisToSnapshot and synopsisFromSnapshot convert between the scan
// synopsis' exported state and its serialized form.
func synopsisToSnapshot(ps []synopsis.PortionState) []snapshot.SynPortion {
	out := make([]snapshot.SynPortion, 0, len(ps))
	for _, p := range ps {
		sp := snapshot.SynPortion{Off: p.Info.Off, End: p.Info.End, FirstRow: p.Info.FirstRow, Rows: p.Info.Rows}
		for _, c := range p.Cols {
			sp.Cols = append(sp.Cols, snapshot.SynCol{
				Col: c.Col, Typ: c.Typ,
				MinI: c.MinI, MaxI: c.MaxI, MinF: c.MinF, MaxF: c.MaxF,
				MinS: c.MinS, MaxS: c.MaxS, MinExact: c.MinExact, MaxExact: c.MaxExact,
			})
		}
		out = append(out, sp)
	}
	return out
}

func synopsisFromSnapshot(ps []snapshot.SynPortion) []synopsis.PortionState {
	out := make([]synopsis.PortionState, 0, len(ps))
	for i, p := range ps {
		st := synopsis.PortionState{Info: scan.PortionInfo{Index: i, Off: p.Off, End: p.End, FirstRow: p.FirstRow, Rows: p.Rows}}
		for _, c := range p.Cols {
			st.Cols = append(st.Cols, synopsis.ColBounds{
				Col: c.Col, Typ: c.Typ,
				MinI: c.MinI, MaxI: c.MaxI, MinF: c.MinF, MaxF: c.MaxF,
				MinS: c.MinS, MaxS: c.MaxS, MinExact: c.MinExact, MaxExact: c.MaxExact,
			})
		}
		out = append(out, st)
	}
	return out
}

// MergeSparse folds qualifying (row, value) pairs of one scanned column
// into the sparse store and refreshes the governor accounting, all under
// the table lock — concurrent readers (SparseFraction, MemSize,
// TableStats) never observe a half-grown column. val(i) returns the value
// for rowIDs[i]. Returns the bytes stored (0 when dense supersedes). The
// caller holds the table's load lock, which serializes merges.
func (t *Table) MergeSparse(col int, rowIDs []int64, val func(i int) storage.Value) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cols[col].Dense != nil {
		return 0
	}
	sp := t.cols[col].Sparse
	if sp == nil {
		sp = storage.NewSparse(t.schema.Columns[col].Type)
		t.cols[col].Sparse = sp
	}
	// One merge pass over the sorted row ids — per-row sorted inserts
	// would go quadratic when a wide load interleaves with retained rows.
	stored := sp.AddRun(rowIDs, val)
	if t.gov == nil || t.released {
		return stored
	}
	if t.sparseH[col] == nil {
		var h *govern.Handle
		h = t.gov.Register(govern.KindSparse, fmt.Sprintf("%s.s%d", t.name, col), func() bool { return t.evictSparse(col, h) })
		t.sparseH[col] = h
	}
	t.sparseH[col].SetBytes(sp.MemSize())
	t.sparseH[col].SetCost(t.fullPassSecLocked())
	t.sparseH[col].Touch()
	return stored
}

// StoreBacked reports whether every listed column still has data in the
// adaptive store (dense or sparse). Coverage regions can transiently
// outlive an eviction that raced a concurrent load; callers treat an
// unbacked coverage claim as a cache miss.
func (t *Table) StoreBacked(cols []int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, c := range cols {
		if t.cols[c].Dense == nil && t.cols[c].Sparse == nil {
			return false
		}
	}
	return true
}

// Pin marks the adaptive structures a query is about to read — the listed
// columns' dense/sparse state plus the positional map and synopsis — as
// in-use, so the governor does not evict them mid-scan. The returned
// function releases the pins; it must be called exactly once.
func (t *Table) Pin(cols []int) (unpin func()) {
	if t.gov == nil {
		return func() {}
	}
	t.mu.RLock()
	var hs []*govern.Handle
	add := func(h *govern.Handle) {
		if h != nil {
			h.Pin()
			hs = append(hs, h)
		}
	}
	for _, c := range cols {
		if c >= 0 && c < len(t.denseH) {
			add(t.denseH[c])
			add(t.sparseH[c])
		}
	}
	add(t.posmapH)
	add(t.synH)
	t.mu.RUnlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			for _, h := range hs {
				h.Unpin()
			}
		})
	}
}

// Own attributes the adaptive structures a query read — the listed
// columns' dense/sparse state plus the table-wide positional map and
// synopsis — to a tenant, for the governor's per-tenant budget
// partitioning. Last user wins, matching the LRU clock's view of recency.
func (t *Table) Own(cols []int, tenant string) {
	if t.gov == nil || tenant == "" {
		return
	}
	t.mu.RLock()
	set := func(h *govern.Handle) {
		if h != nil {
			h.SetOwner(tenant)
		}
	}
	for _, c := range cols {
		if c >= 0 && c < len(t.denseH) {
			set(t.denseH[c])
			set(t.sparseH[c])
		}
	}
	set(t.posmapH)
	set(t.synH)
	t.mu.RUnlock()
}

// Prepare gives the disk cache tier a chance to warm the table before a
// query runs: on the first call it opens the table's snapshot (written by
// a previous process) and restores the small structures — row count,
// sparse columns, coverage regions, synopsis; on every call it restores
// any of the listed columns that have a valid dense section on disk, and,
// when a raw-file load is still unavoidable, re-admits the positional map
// (from the snapshot or from the spill file written by eviction).
// Everything is best-effort: a stale, truncated or corrupt snapshot
// degrades to a cold start for the affected structures, never to a query
// error. Cheap when there is nothing to do.
func (t *Table) Prepare(cols []int) {
	if t.snap == nil || !t.snapPending.Load() {
		return
	}
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	if !t.snapPending.Load() {
		return
	}
	t.initSnapLocked()
	if old := t.pendingExtend; old != nil {
		// The snapshot described a prefix-stable ancestor of the current
		// file; its state was restored eagerly and now extends over the
		// appended tail. Failure degrades to a cold start.
		t.pendingExtend = nil
		if err := t.extendForGrowth(*old, t.Signature()); err != nil {
			t.DropDerived()
			t.dropSnapStateLocked()
		}
		t.updatePendingLocked()
		return
	}
	t.restoreDenseLocked(cols)
	if len(t.MissingDense(t.validCols(cols))) > 0 {
		// A load operator is about to touch the raw file: bring back the
		// structures that make loads cheap.
		t.restorePosMapLocked()
		t.unspillLocked()
	}
	t.updatePendingLocked()
}

// validCols filters cols to the current schema's range (a snapshot from a
// same-signature file always agrees, but plans are untrusted input here).
func (t *Table) validCols(cols []int) []int {
	t.mu.RLock()
	n := len(t.cols)
	t.mu.RUnlock()
	out := cols[:0:0]
	for _, c := range cols {
		if c >= 0 && c < n {
			out = append(out, c)
		}
	}
	return out
}

// initSnapLocked runs once per table (and again after invalidation): open
// the snapshot file, restore the eagerly-wanted sections, and detect
// spill files left by a previous process. Caller holds snapMu.
func (t *Table) initSnapLocked() {
	if t.snapInit {
		return
	}
	t.snapInit = true
	t.mu.RLock()
	sig := t.sig
	t.mu.RUnlock()

	want := snapSig(sig)
	r := t.snap.OpenVerify(t.snapKey, func(stored snapshot.Sig) bool {
		if stored == want {
			return true
		}
		// A smaller stored signature may describe a prefix-stable ancestor
		// of the current file — the table grew by appends after the save.
		// Accept it when a tail pass can extend it: the restore drains it
		// eagerly and the tail extension re-adapts only the appended
		// portion, keeping a warm restart warm across growth.
		if t.tailPass == nil || stored.Size <= 0 || stored.Size >= sig.Size {
			return false
		}
		ok, err := GrownFromFS(t.fs, t.path, catSig(stored))
		return err == nil && ok
	})
	if r != nil && r.Sig() != want {
		t.restoreGrownLocked(r)
		return
	}
	t.restoreSectionsLocked(r)
}

// restoreSectionsLocked adopts r (nil when there is no valid snapshot) as
// the restore source and installs its small sections — row count, the
// dense-section index, sparse columns, coverage regions and synopsis —
// then notes the spill file a previous process's evictions left. Caller
// holds snapMu.
func (t *Table) restoreSectionsLocked(r *snapshot.Reader) {
	t.snapReader = r
	if r != nil {
		if rows := r.Rows(); rows > 0 && t.NumRows() <= 0 {
			t.SetNumRows(rows)
		}
		t.mu.Lock()
		t.snapDenseBytes = make(map[int]int64)
		for _, c := range r.DenseCols() {
			t.snapDenseBytes[c] = r.DenseBytes(c)
		}
		if t.gov != nil && !t.released {
			t.refreshCostsLocked()
		}
		t.mu.Unlock()

		sparse, err := r.Sparse()
		if err != nil {
			t.snap.CountCorrupt(t.snapKey, err)
		}
		for _, sc := range sparse {
			t.installRestoredSparse(sc)
		}
		regs, err := r.Regions()
		if err != nil {
			t.snap.CountCorrupt(t.snapKey, err)
		}
		for _, reg := range regs {
			t.AddRegion(regionFromSnapshot(reg))
		}
		if sy, err := r.Synopsis(); err != nil {
			t.snap.CountCorrupt(t.snapKey, err)
		} else if len(sy) > 0 {
			// Import validates layout contiguity and column types; invalid
			// or stale-shaped data degrades to a cold (re-learned) synopsis.
			t.Syn.Import(synopsisFromSnapshot(sy), t.schema)
		}
	}
	t.mu.Lock()
	if t.snap.HasSpill(t.snapKey) {
		t.spillPM = true
	}
	t.mu.Unlock()
}

// restoreGrownLocked eagerly restores every section of a snapshot taken
// before the raw file grew by appends — as the state of the still-valid
// old prefix — and schedules the tail extension (Prepare runs it next).
// Everything is drained now, not lazily: once the extension updates the
// row count, the on-disk sections (sized to the old prefix) could no
// longer be validated against the table. Caller holds snapMu.
func (t *Table) restoreGrownLocked(r *snapshot.Reader) {
	old := catSig(r.Sig())
	if rows := t.NumRows(); rows > 0 && rows != r.Rows() {
		// The table already discovered the grown file's row count; the
		// snapshot's prefix-sized structures cannot be reconciled with it.
		r.Close()
		t.snap.Remove(t.snapKey)
		return
	}
	t.restoreSectionsLocked(r)
	all := make([]int, len(t.schema.Columns))
	for i := range all {
		all[i] = i
	}
	t.restoreDenseLocked(all)
	t.restorePosMapLocked()
	t.unspillAs(old) // spill files are keyed by the old prefix's signature
	t.pendingExtend = &old
}

// dropSnapStateLocked discards the snapshot files and resets the restore
// state after a failed extension, leaving the table cold but consistent.
// Caller holds snapMu.
func (t *Table) dropSnapStateLocked() {
	if t.snap == nil {
		return
	}
	t.mu.Lock()
	t.resetRestoreLocked()
	t.mu.Unlock()
	t.snap.Remove(t.snapKey)
}

// resetRestoreLocked forgets the snapshot tier's restore state: the open
// reader, the restorable dense sections, the restored-posmap and
// last-save marks, and the spill flag. Caller holds snapMu and mu.
func (t *Table) resetRestoreLocked() {
	if t.snapReader != nil {
		t.snapReader.Close()
		t.snapReader = nil
	}
	t.posMapRestored = false
	t.lastSaveFP = "" // state changed: the next flush must rewrite
	t.snapDenseBytes = nil
	t.spillPM = false
	t.snapPending.Store(false)
}

// restoreDenseLocked re-admits any of cols that are missing in memory but
// have a valid dense section on disk. Caller holds snapMu.
func (t *Table) restoreDenseLocked(cols []int) {
	if t.snapReader == nil {
		return
	}
	for _, c := range t.restorableMissing(cols) {
		d, err := t.snapReader.Dense(c)
		if err != nil {
			t.forgetDenseSection(c, err)
			continue
		}
		t.installRestoredDense(c, d)
	}
}

// restorableMissing returns the listed columns that are not dense in
// memory but have an indexed dense section on disk.
func (t *Table) restorableMissing(cols []int) []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []int
	for _, c := range cols {
		if c < 0 || c >= len(t.cols) || t.cols[c].Dense != nil {
			continue
		}
		if _, ok := t.snapDenseBytes[c]; ok {
			out = append(out, c)
		}
	}
	return out
}

// forgetDenseSection drops a corrupt dense section from the restore index
// so it is neither retried nor priced as a cheap rebuild.
func (t *Table) forgetDenseSection(col int, err error) {
	if t.snapReader != nil {
		t.snapReader.ForgetDense(col)
	}
	t.mu.Lock()
	delete(t.snapDenseBytes, col)
	if t.gov != nil && !t.released {
		t.refreshCostsLocked()
	}
	t.mu.Unlock()
	t.snap.CountCorrupt(t.snapKey, err)
}

// installRestoredDense validates and installs one decoded dense column.
func (t *Table) installRestoredDense(col int, d snapshot.DenseCol) {
	if d.Typ != t.schema.Columns[col].Type {
		t.forgetDenseSection(col, fmt.Errorf("%w: dense col %d type mismatch", snapshot.ErrCorrupt, col))
		return
	}
	// Snapshots hold int columns at 8 bytes; the restored column takes the
	// width rule's width, as a load would.
	dense := (&storage.DenseColumn{Typ: d.Typ, Ints: d.Ints, Floats: d.Floats, Strs: d.Strs}).Narrow()
	n := int64(dense.Len())
	rows := t.NumRows()
	if n == 0 || (rows > 0 && n != rows) {
		t.forgetDenseSection(col, fmt.Errorf("%w: dense col %d has %d values, want %d", snapshot.ErrCorrupt, col, n, rows))
		return
	}
	if rows <= 0 {
		t.SetNumRows(n)
	}
	t.SetDense(col, dense)
}

// installRestoredSparse validates and installs one decoded sparse column
// with its governor registration.
func (t *Table) installRestoredSparse(sc snapshot.SparseCol) {
	t.mu.RLock()
	inRange := sc.Col >= 0 && sc.Col < len(t.cols)
	t.mu.RUnlock()
	if !inRange || sc.Typ != t.schema.Columns[sc.Col].Type {
		return
	}
	n := len(sc.Rows)
	var vals int
	switch sc.Typ {
	case schema.Int64:
		vals = len(sc.Ints)
	case schema.Float64:
		vals = len(sc.Floats)
	default:
		vals = len(sc.Strs)
	}
	if n == 0 || vals != n {
		return
	}
	sp := storage.NewSparse(sc.Typ)
	for i, row := range sc.Rows {
		switch sc.Typ {
		case schema.Int64:
			sp.Add(row, storage.IntValue(sc.Ints[i]))
		case schema.Float64:
			sp.Add(row, storage.FloatValue(sc.Floats[i]))
		default:
			sp.Add(row, storage.StringValue(sc.Strs[i]))
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cols[sc.Col].Dense != nil || t.cols[sc.Col].Sparse != nil {
		return
	}
	t.cols[sc.Col].Sparse = sp
	if t.gov == nil || t.released {
		return
	}
	if t.sparseH[sc.Col] == nil {
		col := sc.Col
		var h *govern.Handle
		h = t.gov.Register(govern.KindSparse, fmt.Sprintf("%s.s%d", t.name, col), func() bool { return t.evictSparse(col, h) })
		t.sparseH[col] = h
	}
	t.sparseH[sc.Col].SetBytes(sp.MemSize())
	t.sparseH[sc.Col].SetCost(t.fullPassSecLocked())
	t.sparseH[sc.Col].Touch()
}

// regionFromSnapshot converts a serialized region back.
func regionFromSnapshot(r snapshot.Region) Region {
	out := Region{Cols: append([]int(nil), r.Cols...), Ranges: map[int]intervals.Interval{}}
	sort.Ints(out.Cols)
	for i, c := range r.RangeCols {
		out.Ranges[c] = intervals.Interval{Lo: r.Los[i], Hi: r.His[i]}
	}
	return out
}

// restorePosMapLocked re-admits the positional map from the snapshot
// (once). Caller holds snapMu.
func (t *Table) restorePosMapLocked() {
	if t.posMapRestored || t.snapReader == nil || !t.snapReader.HasPosMap() {
		return
	}
	t.posMapRestored = true
	cols, err := t.snapReader.PosMap()
	if err != nil {
		t.snap.CountCorrupt(t.snapKey, err)
	}
	for _, pc := range cols {
		t.PosMap.LoadColumn(pc.Col, pc.Rows, pc.Offs)
	}
	t.mu.Lock()
	if t.gov != nil && !t.released {
		t.refreshCostsLocked()
	}
	t.mu.Unlock()
}

// unspillLocked re-admits the positional map spilled by eviction. Caller
// holds snapMu.
func (t *Table) unspillLocked() {
	t.mu.RLock()
	sig := t.sig
	t.mu.RUnlock()
	t.unspillAs(sig)
}

// unspillAs re-admits the spilled positional map whose file was written
// under sig — the current signature normally, the old prefix's during a
// grown restore. Caller holds snapMu.
func (t *Table) unspillAs(sig Signature) {
	t.mu.Lock()
	pm := t.spillPM
	t.spillPM = false
	t.mu.Unlock()
	if !pm {
		return
	}
	if tbl := t.snap.LoadSpill(t.snapKey, snapSig(sig)); tbl != nil {
		for _, pc := range tbl.PosMap {
			t.PosMap.LoadColumn(pc.Col, pc.Rows, pc.Offs)
		}
	}
	t.mu.Lock()
	if t.gov != nil && !t.released {
		t.refreshCostsLocked()
	}
	t.mu.Unlock()
}

// updatePendingLocked recomputes the Prepare fast-path flag. The reader
// stays open while it still holds restorable sections (an evicted column
// is then re-admitted by deserializing, not re-learning). Caller holds
// snapMu. The store happens under t.mu (write lock) so it cannot race a
// concurrent eviction's spill-flag-set-plus-Store(true) and erase it.
func (t *Table) updatePendingLocked() {
	if t.snapReader != nil &&
		len(t.snapReader.DenseCols()) == 0 &&
		(t.posMapRestored || !t.snapReader.HasPosMap()) {
		t.snapReader.Close()
		t.snapReader = nil
	}
	t.mu.Lock()
	t.snapPending.Store(t.snapReader != nil || t.spillPM)
	t.mu.Unlock()
}

// SaveSnapshot serializes the table's auxiliary structures to the cache
// directory (write-temp-then-rename, CRC per section). Structures that
// were never restored from the previous snapshot are carried forward, so
// a short-lived process does not shrink the cache. No-op without a store;
// a table with nothing learned and nothing carried leaves no file.
func (t *Table) SaveSnapshot() error {
	if t.snap == nil {
		return nil
	}
	t.snapMu.Lock()
	defer t.snapMu.Unlock()

	t.mu.RLock()
	tbl := &snapshot.Table{Rows: t.rows}
	if t.PosMap != nil && t.PosMap.MemSize() > 0 {
		tbl.PosMap = posmapSections(t.PosMap)
	}
	for c := range t.cols {
		if d := t.cols[c].Dense; d != nil {
			dc := snapshot.DenseCol{Col: c, Typ: d.Typ, Floats: d.Floats, Strs: d.Strs}
			if d.Typ == schema.Int64 {
				dc.Ints = d.Int64s()
			}
			tbl.Dense = append(tbl.Dense, dc)
		}
		if sp := t.cols[c].Sparse; sp != nil && sp.Len() > 0 {
			sc := snapshot.SparseCol{Col: c, Typ: sp.Typ}
			for i := 0; i < sp.Len(); i++ {
				row, v := sp.At(i)
				sc.Rows = append(sc.Rows, row)
				switch sp.Typ {
				case schema.Int64:
					sc.Ints = append(sc.Ints, v.I)
				case schema.Float64:
					sc.Floats = append(sc.Floats, v.F)
				default:
					sc.Strs = append(sc.Strs, v.S)
				}
			}
			tbl.Sparse = append(tbl.Sparse, sc)
		}
	}
	for _, r := range t.regions {
		reg := snapshot.Region{Cols: append([]int(nil), r.Cols...)}
		for col, iv := range r.Ranges {
			reg.RangeCols = append(reg.RangeCols, col)
			reg.Los = append(reg.Los, iv.Lo)
			reg.His = append(reg.His, iv.Hi)
		}
		tbl.Regions = append(tbl.Regions, reg)
	}
	tbl.Synopsis = synopsisToSnapshot(t.Syn.Export())
	sig, key := t.sig, t.snapKey

	// Fingerprint the state so the periodic flusher skips the rewrite
	// (including the carry-forward decode below) when nothing changed
	// since the last save. Dense columns are immutable once set and the
	// positional map's byte count moves with its content, so structural
	// counts plus byte totals identify the state well enough; a missed
	// nuance only costs one redundant save, never a lost one.
	fp := fmt.Sprintf("r%d pm%d d%v s%d rg%d sy%d", t.rows, t.PosMap.MemSize(), denseColsOf(t.cols), sparseBytesOf(t.cols), len(t.regions), t.Syn.MemSize())
	t.mu.RUnlock()
	if fp == t.lastSaveFP {
		return nil
	}

	// Carry forward still-valid sections this process never restored.
	if t.snapReader != nil {
		have := map[int]bool{}
		for _, d := range tbl.Dense {
			have[d.Col] = true
		}
		for _, c := range t.snapReader.DenseCols() {
			if have[c] {
				continue
			}
			if d, err := t.snapReader.Dense(c); err == nil {
				tbl.Dense = append(tbl.Dense, d)
			}
		}
		if !t.posMapRestored && t.snapReader.HasPosMap() {
			if cols, err := t.snapReader.PosMap(); err == nil || len(cols) > 0 {
				havePM := map[int]bool{}
				for _, pc := range tbl.PosMap {
					havePM[pc.Col] = true
				}
				for _, pc := range cols {
					if !havePM[pc.Col] {
						tbl.PosMap = append(tbl.PosMap, pc)
					}
				}
			}
		}
	}

	if tbl.Rows <= 0 && len(tbl.PosMap) == 0 && len(tbl.Dense) == 0 &&
		len(tbl.Sparse) == 0 && len(tbl.Regions) == 0 &&
		len(tbl.Synopsis) == 0 {
		return nil // nothing learned; don't clobber whatever is on disk
	}
	if err := t.snap.Save(key, snapSig(sig), tbl); err != nil {
		return err
	}
	t.lastSaveFP = fp
	return nil
}

// denseColsOf and sparseBytesOf feed the save fingerprint.
func denseColsOf(cols []ColState) []int {
	var out []int
	for c := range cols {
		if cols[c].Dense != nil {
			out = append(out, c)
		}
	}
	return out
}

func sparseBytesOf(cols []ColState) int64 {
	var n int64
	for c := range cols {
		if sp := cols[c].Sparse; sp != nil {
			n += sp.MemSize()
		}
	}
	return n
}

// closeSnap releases the snapshot reader and disables Prepare. Called
// when the table goes away (unlink, relink, engine close).
func (t *Table) closeSnap() {
	if t.snap == nil {
		return
	}
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	if t.snapReader != nil {
		t.snapReader.Close()
		t.snapReader = nil
	}
	t.snapPending.Store(false)
}

// Sparse returns the sparse column for col, creating it when create is
// true.
func (t *Table) Sparse(col int, create bool) *storage.SparseColumn {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cols[col].Sparse == nil && create {
		t.cols[col].Sparse = storage.NewSparse(t.schema.Columns[col].Type)
	}
	return t.cols[col].Sparse
}

// DenseAll reports whether every listed column is fully loaded.
func (t *Table) DenseAll(cols []int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, c := range cols {
		if t.cols[c].Dense == nil {
			return false
		}
	}
	return true
}

// MissingDense returns the listed columns that are not fully loaded.
func (t *Table) MissingDense(cols []int) []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []int
	for _, c := range cols {
		if t.cols[c].Dense == nil {
			out = append(out, c)
		}
	}
	return out
}

// Touch records that a query needed the listed columns and returns the
// new touch count of each (aligned with cols). The auto policy uses touch
// counts to decide when a column is hot enough to load fully.
func (t *Table) Touch(cols []int) []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.touches == nil {
		t.touches = make(map[int]int)
	}
	out := make([]int, len(cols))
	for i, c := range cols {
		t.touches[c]++
		out[i] = t.touches[c]
	}
	return out
}

// TouchCount returns how many queries have needed the column.
func (t *Table) TouchCount(col int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.touches[col]
}

// SparseFraction returns the fraction of the table's rows present in the
// column's sparse store (0 when rows are unknown or the column has no
// sparse data).
func (t *Table) SparseFraction(col int) float64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	sp := t.cols[col].Sparse
	if sp == nil || t.rows <= 0 {
		return 0
	}
	return float64(sp.Len()) / float64(t.rows)
}

// AddRegion records a covered region of the adaptive store.
func (t *Table) AddRegion(r Region) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Record coverage only while every covered column still has backing
	// data. A governor eviction can land between the loader's merge and
	// this call; without the check the region would outlive its data, and
	// a later partial re-merge would make the stale claim look backed —
	// serving incomplete results. (Evictions prune regions under this
	// same lock, so region-exists ⟹ backing-exists is an invariant.)
	for _, c := range r.Cols {
		if t.cols[c].Dense == nil && t.cols[c].Sparse == nil {
			return
		}
	}
	t.regions = addRegionCoalesced(t.regions, r)
}

// addRegionCoalesced inserts r into regions with exact coalescing:
// regions subsumed by the newcomer are dropped, a newcomer subsumed by an
// existing region is discarded, and regions differing only in one
// column's range — where the two intervals overlap or touch — merge into
// their exact union. Merging loops to a fixpoint, so a newcomer that
// bridges two fragments collapses all three. Coverage is never
// over-stated: every merge is an exact set union, which keeps a sequence
// of interleaved partial loads from fragmenting into one region per load.
func addRegionCoalesced(regions []Region, r Region) []Region {
	for {
		merged := false
		kept := make([]Region, 0, len(regions))
		for _, ex := range regions {
			if merged {
				kept = append(kept, ex)
				continue
			}
			if ex.Covers(r) {
				return regions // nothing new: an existing region subsumes r
			}
			if r.Covers(ex) {
				continue // r subsumes ex: drop the fragment
			}
			if m, ok := mergeRegions(ex, r); ok {
				r = m
				merged = true
				continue
			}
			kept = append(kept, ex)
		}
		regions = kept
		if !merged {
			return append(regions, r)
		}
		// r grew; it may now subsume or merge with further fragments.
	}
}

// mergeRegions attempts an exact merge of a and b: identical materialized
// columns and identical range constraints except on at most one column,
// where the two intervals must overlap or be adjacent — their union is
// then a single interval and the merged region covers exactly the rows
// the two inputs covered together.
func mergeRegions(a, b Region) (Region, bool) {
	if len(a.Cols) != len(b.Cols) || len(a.Ranges) != len(b.Ranges) {
		return Region{}, false
	}
	for i, c := range a.Cols {
		if b.Cols[i] != c {
			return Region{}, false
		}
	}
	diff := -1
	for col, ar := range a.Ranges {
		br, ok := b.Ranges[col]
		if !ok {
			return Region{}, false
		}
		if ar == br {
			continue
		}
		if ar.Lo > br.Hi || br.Lo > ar.Hi {
			return Region{}, false // disjoint with a gap: union is not one interval
		}
		if diff >= 0 {
			return Region{}, false // exact union needs a single differing axis
		}
		diff = col
	}
	if diff < 0 {
		return a, true // identical constraints
	}
	out := Region{Cols: append([]int(nil), a.Cols...), Ranges: make(map[int]intervals.Interval, len(a.Ranges))}
	for col, ar := range a.Ranges {
		out.Ranges[col] = ar
	}
	ar, br := a.Ranges[diff], b.Ranges[diff]
	lo, hi := ar.Lo, ar.Hi
	if br.Lo < lo {
		lo = br.Lo
	}
	if br.Hi > hi {
		hi = br.Hi
	}
	out.Ranges[diff] = intervals.Interval{Lo: lo, Hi: hi}
	return out, true
}

// CoveredBy returns a recorded region covering q, if any.
func (t *Table) CoveredBy(q Region) (Region, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.regions {
		if r.Covers(q) {
			return r, true
		}
	}
	return Region{}, false
}

// Regions returns a copy of the recorded regions.
func (t *Table) Regions() []Region {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]Region(nil), t.regions...)
}

// MemSize returns approximate heap bytes of all loaded state.
func (t *Table) MemSize() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var sz int64
	for _, cs := range t.cols {
		if cs.Dense != nil {
			sz += cs.Dense.MemSize()
		}
		if cs.Sparse != nil {
			sz += cs.Sparse.MemSize()
		}
	}
	if t.PosMap != nil {
		sz += t.PosMap.MemSize()
	}
	sz += t.Syn.MemSize()
	return sz
}

// DropDerived discards all derived state: columns, regions,
// positional map and synopsis. The table remains linked.
func (t *Table) DropDerived() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dropDerivedLocked()
}

func (t *Table) dropDerivedLocked() {
	for i := range t.cols {
		t.cols[i] = ColState{}
	}
	t.regions = nil
	t.touches = nil
	t.rows = -1
	for i := range t.denseH {
		t.denseH[i].Release()
		t.denseH[i] = nil
	}
	for i := range t.sparseH {
		t.sparseH[i].Release()
		t.sparseH[i] = nil
	}
	if t.PosMap != nil {
		t.PosMap.Drop() // zeroes its governor handle via the accountant
	}
	if t.Syn != nil {
		t.Syn.Drop()
	}
}

// releaseGoverned unregisters every governor handle, including the
// persistent positional-map and synopsis ones. Used when the table
// itself goes away (unlink, engine close).
func (t *Table) releaseGoverned() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.released = true
	for i := range t.denseH {
		t.denseH[i].Release()
		t.denseH[i] = nil
	}
	for i := range t.sparseH {
		t.sparseH[i].Release()
		t.sparseH[i] = nil
	}
	t.posmapH.Release()
	t.synH.Release()
	t.posmapH, t.synH = nil, nil
	if t.PosMap != nil {
		t.PosMap.SetAccountant(nil)
	}
	if t.Syn != nil {
		t.Syn.SetAccountant(nil)
	}
}

// Revalidate re-checks the raw file's signature. A prefix-stable growth
// (appended rows; the old content, ending in a newline, is untouched)
// extends the derived state incrementally over the tail when the catalog
// has a tail pass, and falls back to invalidation when the pass fails.
// Any other change drops everything — including the disk cache tier's
// files, which are keyed by the old signature and would only
// self-invalidate later — and re-detects the schema. Returns true when
// either happened.
func (t *Table) Revalidate() (bool, error) {
	sig, err := SignFileFS(t.fs, t.path)
	if err != nil {
		return false, err
	}
	t.mu.RLock()
	same := sig == t.sig
	t.mu.RUnlock()
	if same {
		return false, nil
	}
	// The file changed: serialize against snapshot I/O (snapMu before mu,
	// the global lock order) so a concurrent restore cannot install state
	// from the superseded file version.
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	t.mu.RLock()
	old := t.sig
	t.mu.RUnlock()
	if sig == old {
		return false, nil // raced with another Revalidate
	}
	if sig.Size > old.Size && t.tailPass != nil {
		if ok, gerr := GrownFromFS(t.fs, t.path, old); gerr == nil && ok {
			// The prefix (and therefore the header and schema) is intact:
			// extend positional map, synopsis, coverage regions, dense
			// columns over the appended tail instead of
			// relearning the whole file. Failure falls through to the
			// full invalidation below, which discards every structure the
			// aborted extension may have partially touched.
			if t.growLocked(old, sig) == nil {
				return true, nil
			}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sig == t.sig {
		return false, nil
	}
	sch, err := schema.Detect(t.path, t.detect)
	if err != nil {
		return false, fmt.Errorf("catalog: re-detecting schema of %s: %w", t.path, err)
	}
	t.sig = sig
	oldCols := len(t.schema.Columns)
	t.schema = sch
	t.dropDerivedLocked()
	if t.snap != nil {
		t.resetRestoreLocked()
		t.snap.Remove(t.snapKey)
		t.snapInit = false
	}
	if len(sch.Columns) != oldCols {
		t.cols = make([]ColState, len(sch.Columns))
		if t.gov != nil {
			t.denseH = make([]*govern.Handle, len(sch.Columns))
			t.sparseH = make([]*govern.Handle, len(sch.Columns))
		}
	}
	if t.gov != nil {
		t.refreshCostsLocked()
	}
	return true, nil
}

// Options configures a Catalog.
type Options struct {
	// PosMapBudget caps each table's positional map (0 = default).
	PosMapBudget int64
	// Governor, when non-nil, receives a registration for every adaptive
	// structure (dense columns, sparse columns, positional maps,
	// synopses) so a global byte budget can be enforced with structure-level
	// cost-aware eviction.
	Governor *govern.Governor
	// Snapshots, when non-nil, is the disk cache tier: tables serialize
	// their auxiliary structures there (SaveSnapshots / engine close),
	// restore them lazily on first query (Prepare), and eviction spills
	// expensive structures there instead of discarding them.
	Snapshots *snapshot.Store
	// Counters receives work accounting; may be nil.
	Counters *metrics.Counters
	// FS is the filesystem raw files are read through (schema
	// detection, signatures, revalidation); nil means the real disk.
	FS vfs.FS
	// TailPass, when non-nil, folds the rows a prefix-stable growth
	// appended into a table's learned structures (the engine wires in the
	// loader's pass). Without one, growth invalidates like any other
	// change.
	TailPass TailPass
}

// Catalog is the set of linked tables. Safe for concurrent use.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	opts   Options
}

// New returns an empty catalog.
func New(opts Options) *Catalog {
	return &Catalog{tables: make(map[string]*Table), opts: opts}
}

// Link registers a raw file under a table name, detecting its schema. The
// file must exist. Linking an already linked name relinks it (dropping
// derived state).
func (c *Catalog) Link(name, path string) (*Table, error) {
	return c.LinkOpts(name, path, schema.DetectOptions{})
}

// LinkOpts is Link with explicit schema-detection options (forced format
// or delimiter). The options are remembered: revalidation after a file
// edit re-detects the schema under the same constraints.
func (c *Catalog) LinkOpts(name, path string, dopts schema.DetectOptions) (*Table, error) {
	if dopts.FS == nil {
		dopts.FS = c.opts.FS
	}
	sch, err := schema.Detect(path, dopts)
	if err != nil {
		return nil, fmt.Errorf("catalog: linking %s: %w", path, err)
	}
	sig, err := SignFileFS(c.opts.FS, path)
	if err != nil {
		return nil, err
	}
	t := &Table{
		name:     name,
		path:     path,
		schema:   sch,
		sig:      sig,
		detect:   dopts,
		fs:       c.opts.FS,
		rows:     -1,
		cols:     make([]ColState, len(sch.Columns)),
		counters: c.opts.Counters,
		tailPass: c.opts.TailPass,
		gov:      c.opts.Governor,
		PosMap:   posmap.New(c.opts.PosMapBudget, c.opts.Counters),
		Syn:      synopsis.New(),
	}
	if c.opts.Snapshots != nil {
		t.snap = c.opts.Snapshots
		t.snapKey = snapshot.Key(name, path)
		t.snapPending.Store(true) // first Prepare probes the cache dir
	}
	t.initGoverned()
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.tables[lower(name)]; ok {
		old.DropDerived()
		old.releaseGoverned()
		old.closeSnap()
	}
	c.tables[lower(name)] = t
	return t, nil
}

// initGoverned registers the table's persistent structures with the
// governor and sizes the handle arrays for the current schema.
func (t *Table) initGoverned() {
	if t.gov == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.initGovernedLocked()
}

func (t *Table) initGovernedLocked() {
	t.denseH = make([]*govern.Handle, len(t.schema.Columns))
	t.sparseH = make([]*govern.Handle, len(t.schema.Columns))
	var pmH *govern.Handle
	pmH = t.gov.Register(govern.KindPosMap, t.name+".posmap", func() bool { return t.evictPosMap(pmH) })
	t.posmapH = pmH
	t.PosMap.SetAccountant(t.posmapH)
	var syH *govern.Handle
	syH = t.gov.Register(govern.KindSynopsis, t.name+".synopsis", func() bool { return t.evictSynopsis(syH) })
	t.synH = syH
	t.Syn.SetAccountant(t.synH)
	t.refreshCostsLocked()
}

// Get returns the linked table by name (case-insensitive).
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[lower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q is not linked", name)
	}
	return t, nil
}

// Unlink removes a table and drops its derived state.
func (c *Catalog) Unlink(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[lower(name)]
	if !ok {
		return fmt.Errorf("catalog: table %q is not linked", name)
	}
	t.DropDerived()
	t.releaseGoverned()
	t.closeSnap()
	delete(c.tables, lower(name))
	return nil
}

// Tables returns the linked table names, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.name)
	}
	sort.Strings(out)
	return out
}

// DropAll unlinks every table and drops all derived state. Engine close
// uses it to release the adaptive store in one step.
func (c *Catalog) DropAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, t := range c.tables {
		t.DropDerived()
		t.releaseGoverned()
		t.closeSnap()
		delete(c.tables, name)
	}
}

// SaveSnapshots serializes every table's auxiliary structures to the
// cache directory (no-op without one). Errors are collected — the first
// is returned — but every table is attempted; the engine's periodic
// flusher and Close both use this.
func (c *Catalog) SaveSnapshots() error {
	c.mu.RLock()
	tables := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		tables = append(tables, t)
	}
	c.mu.RUnlock()
	var firstErr error
	for _, t := range tables {
		if err := t.SaveSnapshot(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// MemSize returns the total bytes of loaded state.
func (c *Catalog) MemSize() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var sz int64
	for _, t := range c.tables {
		sz += t.MemSize()
	}
	return sz
}

func lower(s string) string { return strings.ToLower(s) }
