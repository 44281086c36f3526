// Package core implements the NoDB engine: the component that makes "here
// are my data files, here are my queries" work. It owns the catalog of
// linked raw files, chooses and executes adaptive loading operators
// according to the configured policy, runs the relational operators, and
// manages the adaptive store's life-time (memory budget, eviction,
// invalidation on file edits).
//
// The engine is the paper's Figure 2 in code: queries arrive, the adaptive
// loading component decides what to fetch from the flat files, the
// adaptive store keeps what the workload needs, and the kernel evaluates
// the query over whatever mix of freshly loaded and cached data exists.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nodb/internal/catalog"
	"nodb/internal/exec"
	"nodb/internal/govern"
	"nodb/internal/loader"
	"nodb/internal/metrics"
	"nodb/internal/plan"
	"nodb/internal/qos"
	"nodb/internal/schema"
	"nodb/internal/snapshot"
	"nodb/internal/sql"
	"nodb/internal/storage"
	"nodb/internal/vfs"
)

// Options configures an Engine.
type Options struct {
	// Policy selects the adaptive loading strategy (default ColumnLoads).
	Policy plan.Policy
	// MemoryBudget caps the bytes of adaptive state (0 = unlimited):
	// cached columns, retained partial loads, positional maps and
	// synopses all count against it, and the memory governor evicts
	// structures — never mid-scan; in-use structures are pinned — until
	// the total fits again.
	MemoryBudget int64
	// EvictionPolicy selects how the governor picks victims: "cost" (the
	// default) evicts the structure holding the most bytes per second of
	// estimated rebuild work, "lru" evicts the least recently used.
	EvictionPolicy string
	// PosMapBudget caps each table's positional map bytes (0 = default).
	PosMapBudget int64
	// CacheDir enables the persistent auxiliary-structure cache: adaptive
	// structures (positional maps, cached columns, sparse coverage,
	// synopses) are snapshotted there on Close (and by SaveSnapshots),
	// restored lazily on the first query that wants them after a restart,
	// and spilled there by eviction instead of being discarded. Empty
	// disables the disk tier. Snapshot files are keyed by the raw file's
	// path, size and mtime, so editing a file invalidates its snapshots.
	CacheDir string
	// Workers is the tokenization parallelism; 0 (the default) means one
	// worker per CPU, 1 (or negative) pins a sequential scan.
	Workers int
	// ChunkSize overrides the raw-file streaming read size (default
	// scan.DefaultChunkSize). Smaller chunks tighten the cancellation
	// granularity of QueryContext at the cost of more read calls.
	ChunkSize int
	// DisablePositionalMap turns off both recording and use of the
	// positional map (for ablations).
	DisablePositionalMap bool
	// DisableSynopsis turns off the per-portion scan synopsis: no zone-map
	// collection, no portion skipping, no layout reuse (for ablations and
	// the selectivity-sweep baseline).
	DisableSynopsis bool
	// DisableRevalidation skips the per-query file-change check (for
	// benchmarks that fix the data).
	DisableRevalidation bool
	// BatchSize is the rows-per-batch of the vectorized pipeline (0 =
	// exec.DefaultBatchSize). Small sizes tighten LIMIT/cancellation
	// granularity at the cost of per-batch overhead.
	BatchSize int
	// ResultCacheBytes bounds the query result cache (0 disables it).
	// Results are keyed by normalized bound SQL plus the signature of
	// every table the statement touches, so editing a raw file implicitly
	// invalidates its results; identical in-flight queries collapse onto
	// one execution (singleflight).
	ResultCacheBytes int64
	// Tenants configures per-tenant budget partitioning in the memory
	// governor (weights; see qos.Tenant). Empty disables tenancy.
	Tenants []qos.Tenant
	// FS is the filesystem every disk access goes through — raw-file
	// scans, schema detection, snapshots and spills. Nil
	// means the real disk; tests inject a fault-scheduling FS here.
	FS vfs.FS
}

// ErrClosed is returned by every query or preparation attempt after the
// engine was closed.
var ErrClosed = errors.New("nodb: database is closed")

// Engine is a NoDB instance. It is safe for concurrent queries against
// distinct tables; concurrent queries on the same table serialize on the
// table's internal locks.
type Engine struct {
	opts     Options
	policy   atomic.Int32 // current plan.Policy; atomic so SetPolicy races with queries safely
	cat      *catalog.Catalog
	gov      *govern.Governor
	snap     *snapshot.Store // nil when no CacheDir is configured
	counters metrics.Counters
	ld       *loader.Loader
	extLd    *loader.Loader // external baseline: never learns anything
	qcache   *qos.Cache     // nil when ResultCacheBytes is 0
	qflight  qos.Group      // collapses identical in-flight queries

	closed      atomic.Bool
	closeCtx    context.Context // cancelled by Close; aborts in-flight cursors
	closeCancel context.CancelFunc
	stmts       *stmtCache

	followMu sync.Mutex
	followed map[string]bool // lower-cased names attached with TableSpec.Follow
}

// NewEngine creates an engine with the given options. An unknown
// EvictionPolicy falls back to the default (cost-aware); the driver's
// ParseDSNConfig and the command-line front ends validate the name earlier.
func NewEngine(opts Options) *Engine {
	e := &Engine{opts: opts, stmts: newStmtCache(stmtCacheSize), followed: map[string]bool{}}
	e.closeCtx, e.closeCancel = context.WithCancel(context.Background())
	e.policy.Store(int32(opts.Policy))
	evict, err := govern.PolicyByName(opts.EvictionPolicy)
	if err != nil {
		evict = govern.CostAware{}
	}
	e.gov = govern.New(opts.MemoryBudget, evict, &e.counters)
	if len(opts.Tenants) > 0 {
		weights := make(map[string]float64, len(opts.Tenants))
		for _, t := range opts.Tenants {
			w := t.Weight
			if w <= 0 {
				w = 1
			}
			weights[t.Name] = w
		}
		e.gov.SetTenants(weights)
	}
	if opts.ResultCacheBytes > 0 {
		e.qcache = qos.NewCache(opts.ResultCacheBytes, e.gov)
	}
	if opts.CacheDir != "" {
		e.snap = snapshot.NewStore(opts.CacheDir, &e.counters)
		e.snap.FS = opts.FS
	}
	e.ld = &loader.Loader{
		Counters:        &e.counters,
		Workers:         opts.Workers,
		ChunkSize:       opts.ChunkSize,
		RecordPositions: !opts.DisablePositionalMap,
		UsePositions:    !opts.DisablePositionalMap,
		UseSynopsis:     !opts.DisableSynopsis,
		FS:              opts.FS,
	}
	e.cat = catalog.New(catalog.Options{
		PosMapBudget: opts.PosMapBudget,
		Governor:     e.gov,
		Snapshots:    e.snap,
		Counters:     &e.counters,
		FS:           opts.FS,
		TailPass:     e.ld.ExtendTail,
	})
	// The external baseline never learns anything — no positional map and
	// no synopsis; it re-pays the full scan every query by design.
	e.extLd = &loader.Loader{Counters: &e.counters, Workers: opts.Workers, ChunkSize: opts.ChunkSize, FS: opts.FS}
	return e
}

// checkOpen fails with ErrClosed after Close.
func (e *Engine) checkOpen() error {
	if e.closed.Load() {
		return ErrClosed
	}
	return nil
}

// Close shuts the engine down: subsequent queries, preparations, attaches
// and detaches return ErrClosed, in-flight cursors are cancelled (their
// scans stop between chunks), and the catalog's derived state is
// released. Without a CacheDir nothing needs flushing — loaded state is
// in-memory. With one, every table's auxiliary structures are snapshotted
// first, so the next process restarts warm instead of re-paying the
// adaptive learning curve. Close is idempotent.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.closeCancel()
	var err error
	if e.snap != nil {
		err = e.cat.SaveSnapshots()
	}
	e.cat.DropAll()
	return err
}

// SaveSnapshots serializes every table's auxiliary structures to the
// cache directory now (the server's periodic flusher calls this). No-op
// without a CacheDir.
func (e *Engine) SaveSnapshots() error {
	if e.snap == nil {
		return nil
	}
	if err := e.checkOpen(); err != nil {
		return err
	}
	return e.cat.SaveSnapshots()
}

// SnapStats reports the snapshot cache's activity (zero-valued with
// Enabled=false when no CacheDir is configured).
func (e *Engine) SnapStats() snapshot.Stats {
	if e.snap == nil {
		return snapshot.Stats{}
	}
	return e.snap.Stats()
}

// Ping reports whether the engine is usable (ErrClosed after Close).
func (e *Engine) Ping() error { return e.checkOpen() }

// Counters exposes the engine's work accounting.
func (e *Engine) Counters() *metrics.Counters { return &e.counters }

// Catalog exposes the table catalog (read-mostly; used by shells and
// benchmarks for stats).
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Governor exposes the memory governor (accounting, budget, eviction).
func (e *Engine) Governor() *govern.Governor { return e.gov }

// MemStats returns the memory governor's accounting snapshot: budget,
// bytes held and pinned, registered structures, and eviction totals.
func (e *Engine) MemStats() govern.Stats { return e.gov.Stats() }

// Policy returns the current loading policy.
func (e *Engine) Policy() plan.Policy { return plan.Policy(e.policy.Load()) }

// SetPolicy changes the loading policy for subsequent queries. Already
// loaded state stays usable. Safe to call while queries are in flight;
// each query reads the policy once, at plan time.
func (e *Engine) SetPolicy(p plan.Policy) { e.policy.Store(int32(p)) }

// TableSpec describes a raw file to attach as a table.
type TableSpec struct {
	// Path is the raw flat file to serve queries from.
	Path string
	// Format forces the file format: "csv" or "ndjson". Empty sniffs the
	// prefix; anything else fails the attach.
	Format string
	// Delimiter forces the CSV delimiter instead of sniffing (0 sniffs).
	Delimiter byte
	// Follow marks the table for tail-follow polling: serving layers
	// (nodbd's -follow mode) periodically Refresh the tables reported by
	// Followed. The engine itself never polls.
	Follow bool
}

// Attach registers the raw file described by spec under a table name,
// replacing any previous table of that name (and dropping its derived
// state). This is the only initialization step NoDB requires.
func (e *Engine) Attach(name string, spec TableSpec) error {
	if err := e.checkOpen(); err != nil {
		return err
	}
	if name == "" || spec.Path == "" {
		return fmt.Errorf("core: attach needs a table name and a file path")
	}
	_, err := e.cat.LinkOpts(name, spec.Path, schema.DetectOptions{
		Format:    spec.Format,
		Delimiter: spec.Delimiter,
	})
	if err != nil {
		return err
	}
	e.followMu.Lock()
	if spec.Follow {
		e.followed[strings.ToLower(name)] = true
	} else {
		delete(e.followed, strings.ToLower(name))
	}
	e.followMu.Unlock()
	return nil
}

// Detach removes a table, its derived state, and its follow mark.
func (e *Engine) Detach(name string) error {
	if err := e.checkOpen(); err != nil {
		return err
	}
	e.followMu.Lock()
	delete(e.followed, strings.ToLower(name))
	e.followMu.Unlock()
	return e.cat.Unlink(name)
}

// Followed returns the names of currently attached tables whose spec set
// Follow, sorted. Serving layers poll Refresh over this set.
func (e *Engine) Followed() []string {
	e.followMu.Lock()
	marks := make([]string, 0, len(e.followed))
	for n := range e.followed {
		marks = append(marks, n)
	}
	e.followMu.Unlock()
	var names []string
	for _, n := range marks {
		if _, err := e.cat.Get(n); err == nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// RefreshResult describes what a Refresh found.
type RefreshResult struct {
	// Changed reports whether the raw file's signature moved at all.
	Changed bool `json:"changed"`
	// Grown reports whether the change was a prefix-stable growth folded
	// in incrementally (learned structures kept). Changed && !Grown means
	// the file was edited in place and everything derived was invalidated.
	Grown bool `json:"grown"`
	// RowsAdded and TailBytes are the rows/bytes ingested by this refresh
	// when Grown.
	RowsAdded int64 `json:"rows_added"`
	TailBytes int64 `json:"tail_bytes"`
	// Rows is the table's row count after the refresh (-1 when unknown).
	Rows int64 `json:"rows"`
}

// Refresh re-stats a table's raw file now and folds in any change: a
// prefix-stable growth (rows appended) extends the learned structures
// incrementally, anything else invalidates them. Queries under
// revalidation do this implicitly per statement; Refresh is the explicit
// entry point for follow loops and the HTTP refresh endpoint, and works
// even when revalidation is disabled.
func (e *Engine) Refresh(name string) (RefreshResult, error) {
	if err := e.checkOpen(); err != nil {
		return RefreshResult{}, err
	}
	t, err := e.cat.Get(name)
	if err != nil {
		return RefreshResult{}, err
	}
	before := t.Ingest()
	changed, err := t.Revalidate()
	if err != nil {
		return RefreshResult{}, err
	}
	after := t.Ingest()
	return RefreshResult{
		Changed:   changed,
		Grown:     after.Refreshes > before.Refreshes,
		RowsAdded: after.AppendedRows - before.AppendedRows,
		TailBytes: after.AppendedBytes - before.AppendedBytes,
		Rows:      t.NumRows(),
	}, nil
}

// Tables returns the attached table names.
func (e *Engine) Tables() []string { return e.cat.Tables() }

// QueryStats describes what one query cost.
type QueryStats struct {
	// Work is the counter delta attributable to this query.
	Work metrics.Snapshot
	// Wall is the wall-clock execution time.
	Wall time.Duration
	// Plan is the physical plan rendering.
	Plan string
}

// Result is a query result.
type Result struct {
	Columns []string
	Rows    [][]storage.Value
	Stats   QueryStats
}

// String renders the result as an aligned text table.
func (r *Result) String() string {
	var sb strings.Builder
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, c := range r.Columns {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[i], c)
	}
	sb.WriteByte('\n')
	for ri := range cells {
		for ci := range cells[ri] {
			if ci > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[ci], cells[ri][ci])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TableSchema implements plan.CatalogInfo.
func (e *Engine) TableSchema(name string) (*schema.Schema, error) {
	t, err := e.cat.Get(name)
	if err != nil {
		return nil, err
	}
	return t.Schema(), nil
}

// DenseAll implements plan.CatalogInfo.
func (e *Engine) DenseAll(name string, cols []int) bool {
	t, err := e.cat.Get(name)
	if err != nil {
		return false
	}
	return t.DenseAll(cols)
}

// Query parses and executes one SELECT statement.
func (e *Engine) Query(query string) (*Result, error) {
	return e.QueryContext(context.Background(), query)
}

// QueryContext parses and executes one SELECT statement under ctx. When
// ctx is cancelled or times out, execution stops cooperatively — a scan in
// progress aborts between chunks rather than finishing the raw-file pass —
// and the context's error is returned. Optional args bind the statement's
// `?` placeholders.
func (e *Engine) QueryContext(ctx context.Context, query string, args ...any) (*Result, error) {
	rows, err := e.QueryRows(ctx, query, args...)
	if err != nil {
		return nil, err
	}
	return rows.Result()
}

// Explain returns the physical plan for a query without executing it.
func (e *Engine) Explain(query string) (string, error) {
	return e.ExplainContext(context.Background(), query)
}

// ExplainContext is Explain under a context (revalidation may touch the
// filesystem, so even planning honors cancellation).
func (e *Engine) ExplainContext(ctx context.Context, query string) (string, error) {
	if err := e.checkOpen(); err != nil {
		return "", err
	}
	stmt, err := e.parseCached(query)
	if err != nil {
		return "", err
	}
	if err := ctx.Err(); err != nil {
		return "", err
	}
	if err := e.revalidate(stmt); err != nil {
		return "", err
	}
	p, err := plan.Build(stmt, e, e.Policy())
	if err != nil {
		return "", err
	}
	out := p.String() + describePipeline(p, e.batchSize())
	if !e.opts.DisableSynopsis {
		for i := range p.Tables {
			tp := &p.Tables[i]
			t, err := e.cat.Get(tp.Name)
			if err != nil || t.Syn == nil {
				continue
			}
			portions, skipped := t.Syn.EstimateSkips(tp.Conj)
			if portions > 0 {
				out += fmt.Sprintf("synopsis %s: portions=%d skipped=%d\n", tp.Name, portions, skipped)
			}
		}
	}
	if e.snap != nil {
		st := e.snap.Stats()
		out += fmt.Sprintf("snapshot: hits=%d misses=%d saves=%d spills=%d invalidations=%d\n",
			st.Hits, st.Misses, st.Saves, st.Spills, st.Invalidations)
	}
	if e.qcache != nil {
		st := e.qcache.Stats()
		cached := ""
		if stmt.NumParams == 0 {
			if _, ok := e.qcache.Get(e.resultKey(stmt)); ok {
				cached = " this-query=cached"
			}
		}
		out += fmt.Sprintf("result cache: hits=%d misses=%d entries=%d bytes=%d/%d%s\n",
			st.Hits, st.Misses, st.Entries, st.Bytes, st.MaxBytes, cached)
	}
	if gst := e.gov.Stats(); len(gst.Tenants) > 0 {
		names := make([]string, 0, len(gst.Tenants))
		for name := range gst.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ts := gst.Tenants[name]
			out += fmt.Sprintf("tenant %s: weight=%g share=%dB used=%dB evictions=%d\n",
				name, ts.Weight, ts.ShareBytes, ts.Used, ts.Evictions)
		}
	}
	return out, nil
}

// ResultCacheStats reports the result cache's accounting (zero-valued
// with Enabled=false when ResultCacheBytes is 0).
func (e *Engine) ResultCacheStats() qos.CacheStats {
	if e.qcache == nil {
		return qos.CacheStats{}
	}
	return e.qcache.Stats()
}

func (e *Engine) revalidate(stmt *sql.SelectStmt) error {
	if e.opts.DisableRevalidation {
		return nil
	}
	check := func(name string) error {
		t, err := e.cat.Get(name)
		if err != nil {
			return err
		}
		_, err = t.Revalidate()
		return err
	}
	if err := check(stmt.From.Name); err != nil {
		return err
	}
	for _, j := range stmt.Joins {
		if err := check(j.Table.Name); err != nil {
			return err
		}
	}
	return nil
}

// QueryStmt executes a parsed statement.
func (e *Engine) QueryStmt(stmt *sql.SelectStmt) (*Result, error) {
	return e.QueryStmtContext(context.Background(), stmt)
}

// QueryStmtContext executes a parsed statement under ctx by draining a
// streaming cursor into a buffered Result. Cancellation is cooperative: it
// is checked before planning, before each table's load operator runs, and
// inside the scan/load chunk loops.
func (e *Engine) QueryStmtContext(ctx context.Context, stmt *sql.SelectStmt) (*Result, error) {
	rows, err := e.QueryRowsStmt(ctx, stmt)
	if err != nil {
		return nil, err
	}
	return rows.Result()
}

// ensureDensePinned delivers a pinned dense source over cols, reloading
// as needed: a plan may carry a stale LoadNone (the columns were evicted
// between planning and execution), and a concurrent query's post-query
// budget enforcement may evict a column in the window between its load
// and its pin. Both degrade to a reload here — never to a query error.
// Once pinned, the columns cannot be evicted, so each retry needs a
// freshly lost race; the generous cap exists only to turn a logic bug
// into an error instead of a spin. The returned unpin must be called
// when the scan over src is done.
func (e *Engine) ensureDensePinned(ctx context.Context, t *catalog.Table, cols []int) (exec.DenseSource, func(), error) {
	var lastErr error
	for attempt := 0; attempt < 64; attempt++ {
		if err := ctx.Err(); err != nil {
			return exec.DenseSource{}, nil, err
		}
		t.Prepare(cols) // an evicted-but-snapshotted column re-admits by deserializing
		if len(t.MissingDense(cols)) > 0 {
			if err := e.ld.ColumnLoadContext(ctx, t, cols); err != nil {
				return exec.DenseSource{}, nil, err
			}
		}
		unpin := t.Pin(cols)
		src, err := loader.DenseSourceFor(t, cols, &e.counters)
		if err == nil {
			return src, unpin, nil
		}
		unpin()
		lastErr = err // evicted between load and pin: go again
	}
	return exec.DenseSource{}, nil, lastErr
}

// prepareCols returns the columns Table.Prepare should try to restore
// from the snapshot cache for a table plan: a full-load operator needs
// every column dense, everything else needs the plan's pin set.
func prepareCols(t *catalog.Table, tp *plan.TablePlan) []int {
	if tp.LoadOp != plan.LoadFull {
		return tp.Pins
	}
	all := make([]int, t.Schema().NumCols())
	for i := range all {
		all[i] = i
	}
	return all
}

// runLoad executes a column-granularity load operator (a full pass over
// the raw file by design), leaving the needed columns dense. LoadNone is a
// no-op.
func (e *Engine) runLoad(ctx context.Context, t *catalog.Table, tp *plan.TablePlan) error {
	switch tp.LoadOp {
	case plan.LoadNone:
		return nil
	case plan.LoadFull:
		return e.ld.FullLoadContext(ctx, t)
	case plan.LoadColumns:
		return e.ld.ColumnLoadContext(ctx, t, tp.NeedCols)
	default:
		return fmt.Errorf("core: load op %v is not column-granularity", tp.LoadOp)
	}
}

// Auto-policy promotion thresholds: a column touched this many times, or
// whose sparse store holds this fraction of the table, gets loaded fully.
const (
	autoTouchThreshold    = 3
	autoSparseFracPromote = 0.25
)

// autoLoad is the self-tuning load operator (paper §5.5): cold columns are
// partially loaded with retention; columns the workload keeps coming back
// for are promoted to full column loads, bounding the number of trips back
// to the raw file. It returns nil, with no error, once every column the
// plan reads is dense: the caller then scans them like a column load.
func (e *Engine) autoLoad(ctx context.Context, t *catalog.Table, tp *plan.TablePlan) (*exec.View, error) {
	needAll := tp.Pins
	touches := t.Touch(needAll)

	var promote []int
	for i, c := range needAll {
		if t.Dense(c) != nil {
			continue
		}
		if touches[i] >= autoTouchThreshold || t.SparseFraction(c) >= autoSparseFracPromote {
			promote = append(promote, c)
		}
	}
	if len(promote) > 0 {
		if err := e.ld.ColumnLoadContext(ctx, t, promote); err != nil {
			return nil, err
		}
	}
	if t.DenseAll(needAll) {
		return nil, nil
	}
	return e.ld.PartialLoadV2Context(ctx, t, tp.NeedCols, tp.Conj, tp.Ordinal)
}

// TableStats describes the adaptive-store state of one linked table.
type TableStats struct {
	// Path is the raw file the table serves.
	Path string
	// Rows is the discovered row count (-1 when no scan has run yet).
	Rows int64
	// DenseCols lists fully loaded attribute indices.
	DenseCols []int
	// SparseCols maps partially loaded attribute index → entries held.
	SparseCols map[int]int
	// Regions is the number of covered regions recorded for reuse.
	Regions int
	// PosMapEntries is the number of recorded attribute positions.
	PosMapEntries int
	// SynopsisPortions is the number of portions in the learned scan
	// synopsis layout; SynopsisBounds the number of (portion, column)
	// zone-map bounds held.
	SynopsisPortions int
	SynopsisBounds   int
	// MemBytes is the in-memory size of all loaded state.
	MemBytes int64
	// Signature identifies the raw file version the state describes.
	Signature catalog.Signature
	// Ingest is the append-ingestion accounting: rows/bytes folded in by
	// incremental tail extensions and when the last one ran.
	Ingest catalog.IngestStats
}

// TableStats reports what the engine has adaptively built for a table.
func (e *Engine) TableStats(name string) (TableStats, error) {
	t, err := e.cat.Get(name)
	if err != nil {
		return TableStats{}, err
	}
	st := TableStats{
		Path:       t.Path(),
		Rows:       t.NumRows(),
		SparseCols: map[int]int{},
		Regions:    len(t.Regions()),
		MemBytes:   t.MemSize(),
		Signature:  t.Signature(),
		Ingest:     t.Ingest(),
	}
	for c := 0; c < t.Schema().NumCols(); c++ {
		if t.Dense(c) != nil {
			st.DenseCols = append(st.DenseCols, c)
		} else if sp := t.Sparse(c, false); sp != nil {
			st.SparseCols[c] = sp.Len()
		}
	}
	if t.PosMap != nil {
		st.PosMapEntries = t.PosMap.Entries()
	}
	st.SynopsisPortions, st.SynopsisBounds = t.Syn.Stats()
	return st, nil
}
