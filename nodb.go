// Package nodb is a query engine over raw flat files with zero
// initialization cost — a from-scratch Go reproduction of the system
// envisioned in "Here are my Data Files. Here are my Queries. Where are my
// Results?" (Idreos, Alagiannis, Johnson, Ailamaki — CIDR 2011).
//
// Point it at CSV files and fire SQL immediately:
//
//	db := nodb.Open(nodb.Options{})
//	defer db.Close()
//	if err := db.Attach("events", nodb.TableSpec{Path: "events.csv"}); err != nil { ... }
//	res, err := db.Query("select sum(a1), avg(a2) from events where a1 > 10 and a1 < 1000")
//
// There is no load step. The engine brings data in adaptively, driven by
// the queries: depending on the configured policy it loads whole columns
// on demand (ColumnLoads), only the qualifying values (PartialLoads), or
// cracks the raw file into per-column split files as a side effect of
// scanning (SplitFiles). Everything it learns — parsed columns, covered
// value regions, attribute byte positions, split files — makes the next
// query cheaper, and all of it is disposable: edit the CSV with a text
// editor and the engine notices and starts over.
package nodb

import (
	"context"
	"fmt"

	"nodb/internal/catalog"
	"nodb/internal/core"
	"nodb/internal/errs"
	"nodb/internal/govern"
	"nodb/internal/metrics"
	"nodb/internal/plan"
	"nodb/internal/qos"
	"nodb/internal/schema"
	"nodb/internal/snapshot"
	"nodb/internal/storage"
	"nodb/internal/synopsis"
	"nodb/internal/vfs"
)

// Policy selects the adaptive loading strategy.
type Policy = plan.Policy

// Loading policies. README "Loading policies" lists what each one does.
const (
	// ColumnLoads (the default, the zero Policy) loads whole missing
	// columns on demand.
	ColumnLoads = plan.PolicyColumnLoads
	// FullLoad loads the complete table on first touch — classic DBMS
	// behavior, kept as a comparator.
	FullLoad = plan.PolicyFullLoad
	// PartialLoadsV1 pushes WHERE clauses into loading and retains
	// nothing between queries.
	PartialLoadsV1 = plan.PolicyPartialV1
	// PartialLoadsV2 retains qualifying values; repeated or narrower
	// queries are answered without touching the file.
	PartialLoadsV2 = plan.PolicyPartialV2
	// SplitFiles loads columns through per-column split files created as
	// a side effect of earlier scans ("file cracking").
	SplitFiles = plan.PolicySplitFiles
	// External re-reads and re-parses the file for every query, caching
	// nothing (MySQL-CSV-engine-style external tables).
	External = plan.PolicyExternal
	// Auto self-tunes per column: cold columns are partially loaded with
	// retention, and columns the workload keeps touching are promoted to
	// full column loads (the paper's §5.5 robustness direction).
	Auto = plan.PolicyAuto
)

// ParsePolicy converts a policy name ("columns", "full", "partial-v1",
// "partial-v2", "splitfiles", "external", "auto") to a Policy.
func ParsePolicy(s string) (Policy, error) { return plan.ParsePolicy(s) }

// ParseEvictionPolicy validates an eviction policy name ("cost", "lru";
// "" selects the default) and returns its canonical form for
// Options.EvictionPolicy. Open does not validate the field itself —
// unknown names silently fall back to the default — so call this first
// when the name comes from user input.
func ParseEvictionPolicy(s string) (string, error) {
	p, err := govern.PolicyByName(s)
	if err != nil {
		return "", err
	}
	return p.Name(), nil
}

// Options configures a DB.
type Options struct {
	// Policy is the adaptive loading strategy (default ColumnLoads).
	Policy Policy
	// SplitDir is the directory for split files; required for the
	// SplitFiles policy. Files there are derived state and safe to
	// delete.
	SplitDir string
	// MemoryBudget caps the bytes of adaptive state the engine may hold
	// (0 = unlimited, the default). Cached columns, retained partial
	// loads, positional maps and split files all register with a global
	// memory governor; when their total exceeds the budget, the governor
	// evicts individual structures — chosen by EvictionPolicy, never while
	// a running query has them pinned — until the total fits again.
	// Evicted state is rebuilt transparently by the next query that needs
	// it.
	MemoryBudget int64
	// EvictionPolicy selects the governor's victim order: "cost" (the
	// default) evicts the structure holding the most bytes per second of
	// estimated rebuild work, so a cheap-to-reload cached column goes
	// before a positional map that took many passes to learn; "lru"
	// evicts the least recently used regardless of rebuild cost. Open
	// cannot return an error, so an unrecognized name silently falls back
	// to "cost"; OpenErr rejects it instead. Use OpenErr (or validate
	// with ParseEvictionPolicy) when the name comes from user input — the
	// CLI flags and driver DSN already do.
	EvictionPolicy string
	// CacheDir enables the persistent auxiliary-structure cache (the
	// disk tier of the adaptive store). When set, everything the engine
	// learns — positional maps, cached columns, retained partial loads
	// with their coverage regions, split-file manifests — is snapshotted
	// there on Close (and by Snapshot / the server's periodic flusher)
	// and restored lazily by the first query that wants it after a
	// restart, so a reopened DB starts warm instead of re-paying the
	// adaptive learning curve. Under a MemoryBudget, eviction *spills*
	// expensive structures there instead of discarding them, and
	// re-admits them on demand. Snapshot files are versioned,
	// checksummed, and keyed by each raw file's path, size and mtime:
	// editing a file invalidates its snapshots, and a torn or corrupted
	// file degrades to a cold start — never a wrong answer. Empty
	// disables the disk tier.
	CacheDir string
	// Workers is tokenization parallelism; 0 (the default) uses one worker
	// per CPU — raw-file scans are parallel by default. Set 1 (or any
	// negative value) for a sequential scan.
	Workers int
	// ChunkSize overrides the raw-file streaming read size (default 1 MiB).
	// Smaller chunks tighten the granularity of cancellation and of cursor
	// early termination at the cost of more read calls.
	ChunkSize int
	// DisablePositionalMap turns the positional map off.
	DisablePositionalMap bool
	// DisableSynopsis turns off the per-portion scan synopsis: zone maps
	// (per-portion min/max bounds) collected free during any tokenizing
	// pass, which let later selective queries skip whole file portions
	// without reading them. On by default; disable only for ablations.
	DisableSynopsis bool
	// DisableRevalidation skips per-query file-change detection.
	DisableRevalidation bool
	// BatchSize is the rows-per-batch of the vectorized execution
	// pipeline (0 = the default, 1024). Smaller batches tighten LIMIT and
	// cancellation granularity at the cost of per-batch overhead.
	BatchSize int
	// ResultCacheBytes bounds the query result cache (0, the default,
	// disables it). Results are keyed by the normalized bound SQL plus the
	// signature (size, mtime, prefix CRC) of every raw file the statement
	// touches, so editing a file implicitly invalidates its cached
	// results. Cached bytes register with the memory governor under their
	// own kind and are the first to go under budget pressure. Identical
	// in-flight queries additionally collapse singleflight-style: N
	// concurrent duplicates cost one execution.
	ResultCacheBytes int64
	// Tenants partitions the memory governor's budget per tenant: each
	// tenant's slice is MemoryBudget × weight ÷ Σweights, and a tenant
	// exceeding its slice loses its own structures first — one heavy
	// tenant cannot evict another's positional maps. Queries attribute
	// the structures they touch to the tenant carried in their context
	// (the server sets it from X-API-Key; the driver from apikey= in the
	// DSN). Empty disables tenancy.
	Tenants []TenantConfig
}

// TenantConfig declares one tenant: name, API key, and share weight.
type TenantConfig = qos.Tenant

// Value is one typed scalar in a result row.
type Value = storage.Value

// Result is a query result: column names, rows, and per-query work stats.
type Result = core.Result

// Rows is a streaming query cursor with database/sql-style iteration:
// Next, Scan, Columns, Stats, Err, Close. The query runs on the caller's
// goroutine, starting at the first Next. A LIMIT — or closing the cursor
// mid-iteration — stops the underlying raw-file scan between chunks
// instead of finishing the pass. A slice from Row stays valid after later
// Next calls. Every Rows must be closed.
type Rows = core.Rows

// Stmt is a prepared statement: parsed and validated once, executed many
// times with `?` placeholder arguments. Safe for concurrent use.
type Stmt = core.Stmt

// ErrClosed is returned by queries, preparations, attaches and detaches
// after Close.
var ErrClosed = core.ErrClosed

// Typed failure categories, re-exported from the engine's error
// taxonomy. Any error a query or refresh returns can be classified with
// errors.Is against these; see internal/errs for the full semantics.
var (
	// ErrRawIO marks a failed read of a raw data file.
	ErrRawIO = errs.ErrRawIO
	// ErrSnapshotCorrupt marks a snapshot/spill file that failed
	// validation. It never surfaces from queries (corrupt snapshots
	// degrade to cold starts); it may surface from explicit Snapshot
	// round-trips in tests and tools.
	ErrSnapshotCorrupt = errs.ErrSnapshotCorrupt
	// ErrDiskFull marks an out-of-space write; the snapshot tier
	// degrades to memory-only operation instead of failing queries.
	ErrDiskFull = errs.ErrDiskFull
	// ErrFileShrunk marks a raw file that got shorter mid-scan.
	ErrFileShrunk = errs.ErrFileShrunk
	// ErrShardUnavailable marks a cluster shard that exhausted its
	// retry budget; with AllowPartial the coordinator reports it in
	// the trailer instead of failing the query.
	ErrShardUnavailable = errs.ErrShardUnavailable
	// ErrCircuitOpen marks a shard request refused locally because
	// that shard's circuit breaker is open.
	ErrCircuitOpen = errs.ErrCircuitOpen
)

// QueryStats is the per-query work accounting attached to results.
type QueryStats = core.QueryStats

// WorkSnapshot is a point-in-time copy of the engine's work counters.
type WorkSnapshot = metrics.Snapshot

// Type is a column's data type.
type Type = schema.Type

// Column data types.
const (
	Int64   = schema.Int64
	Float64 = schema.Float64
	String  = schema.String
)

// DB is a NoDB instance: a set of attached raw files plus whatever the
// engine has adaptively loaded from them so far.
type DB struct {
	e *core.Engine
}

// Open creates a DB. It never touches the filesystem until a file is
// attached — there is nothing to initialize.
//
// Open cannot fail, so it applies lenient defaults to invalid fields: an
// unrecognized EvictionPolicy silently falls back to "cost", and invalid
// Tenants entries partition as best they can. Use OpenErr when options
// come from user input (flags, a DSN, a config file) and misconfiguration
// should be an error instead.
func Open(opts Options) *DB {
	return &DB{e: core.NewEngine(coreOptions(opts))}
}

// openFS is the test seam for fault injection: Open with every disk
// access routed through fsys (see internal/vfs). Chaos tests inject a
// vfs.FaultFS here; production code always opens against the real disk.
func openFS(opts Options, fsys vfs.FS) *DB {
	co := coreOptions(opts)
	co.FS = fsys
	return &DB{e: core.NewEngine(co)}
}

// OpenErr is Open with validation: it rejects an unrecognized
// EvictionPolicy (the field Open silently defaults), negative byte
// budgets, and malformed Tenants (duplicate names or keys, missing
// fields, non-positive weights). The CLI flags and the driver DSN open
// through it, so a typo'd "-evict lru " or tenant table fails loudly at
// startup instead of degrading silently.
func OpenErr(opts Options) (*DB, error) {
	if _, err := govern.PolicyByName(opts.EvictionPolicy); err != nil {
		return nil, err
	}
	if opts.MemoryBudget < 0 {
		return nil, fmt.Errorf("nodb: negative MemoryBudget %d", opts.MemoryBudget)
	}
	if opts.ResultCacheBytes < 0 {
		return nil, fmt.Errorf("nodb: negative ResultCacheBytes %d", opts.ResultCacheBytes)
	}
	if len(opts.Tenants) > 0 {
		names := map[string]bool{}
		keys := map[string]bool{}
		for _, t := range opts.Tenants {
			if t.Name == "" {
				return nil, fmt.Errorf("nodb: tenant with key %q has no name", t.Key)
			}
			if names[t.Name] {
				return nil, fmt.Errorf("nodb: duplicate tenant name %q", t.Name)
			}
			if t.Key != "" && keys[t.Key] {
				return nil, fmt.Errorf("nodb: duplicate tenant API key (tenant %q)", t.Name)
			}
			if t.Weight < 0 {
				return nil, fmt.Errorf("nodb: tenant %q has negative weight %g", t.Name, t.Weight)
			}
			names[t.Name] = true
			if t.Key != "" {
				keys[t.Key] = true
			}
		}
	}
	return Open(opts), nil
}

func coreOptions(opts Options) core.Options {
	return core.Options{
		Policy:               opts.Policy,
		SplitDir:             opts.SplitDir,
		MemoryBudget:         opts.MemoryBudget,
		EvictionPolicy:       opts.EvictionPolicy,
		CacheDir:             opts.CacheDir,
		Workers:              opts.Workers,
		ChunkSize:            opts.ChunkSize,
		DisablePositionalMap: opts.DisablePositionalMap,
		DisableSynopsis:      opts.DisableSynopsis,
		DisableRevalidation:  opts.DisableRevalidation,
		BatchSize:            opts.BatchSize,
		ResultCacheBytes:     opts.ResultCacheBytes,
		Tenants:              opts.Tenants,
	}
}

// Close releases the DB: subsequent queries, preparations, attaches and
// detaches return ErrClosed, in-flight cursors are cancelled (their
// raw-file scans stop between chunks), and all adaptively loaded state is
// dropped. With a CacheDir configured, every table's auxiliary structures
// are snapshotted to disk first, so reopening with the same CacheDir
// starts warm; the returned error reports a failed snapshot write (the
// close itself always completes). Close is idempotent.
func (db *DB) Close() error { return db.e.Close() }

// Snapshot serializes every table's auxiliary structures to the CacheDir
// now, without closing the DB. No-op (nil) when no CacheDir is
// configured. The server's periodic flusher calls this so a crash loses
// at most one flush interval of learning.
func (db *DB) Snapshot() error { return db.e.SaveSnapshots() }

// SnapStats describes the snapshot cache's activity: restores served
// (hits), probes that found nothing (misses), snapshots written (saves),
// structures spilled by eviction instead of discarded (spills), and
// stale or corrupt files discarded (invalidations).
type SnapStats = snapshot.Stats

// SnapStats reports the snapshot cache's activity; Enabled is false (and
// everything zero) when no CacheDir is configured.
func (db *DB) SnapStats() SnapStats { return db.e.SnapStats() }

// Ping reports whether the DB is usable; it returns ErrClosed after Close.
func (db *DB) Ping() error { return db.e.Ping() }

// TableSpec describes a raw file to attach as a table: where it lives and
// how to read it. The zero value plus a Path is the common case — format,
// delimiter, header and column types are detected automatically.
type TableSpec struct {
	// Path is the raw flat file to serve queries from.
	Path string
	// Format forces the file format, "csv" or "ndjson", instead of
	// sniffing the prefix. Forcing matters for files whose first rows are
	// unrepresentative (e.g. an empty NDJSON log that will grow later).
	Format string
	// Delimiter forces the CSV delimiter instead of sniffing.
	Delimiter byte
	// Follow marks the table for tail-follow polling: nodbd's -follow
	// mode periodically calls Refresh on every followed table, folding in
	// appended rows. The library itself never polls — embedders run their
	// own loop over Followed/Refresh.
	Follow bool
}

// Attach registers the raw file described by spec as a queryable table,
// replacing any previous table of that name (and dropping its derived
// state). This is the only setup step NoDB requires.
func (db *DB) Attach(name string, spec TableSpec) error {
	return db.e.Attach(name, core.TableSpec{
		Path:      spec.Path,
		Format:    spec.Format,
		Delimiter: spec.Delimiter,
		Follow:    spec.Follow,
	})
}

// Detach removes a table and drops everything derived from its file.
func (db *DB) Detach(name string) error { return db.e.Detach(name) }

// RefreshResult describes what a Refresh found: whether the file changed,
// whether the change was append-only growth that was folded in
// incrementally (Grown — learned structures kept), and how many rows and
// bytes arrived.
type RefreshResult = core.RefreshResult

// Refresh re-stats a table's raw file now. Rows appended since the last
// look (the file grew and its previous contents are intact) extend the
// positional map, cached columns, coverage regions, scan synopsis and
// split files in one pass over just the new tail; any other edit
// invalidates the derived state, exactly as a query would. Queries detect
// both cases automatically unless DisableRevalidation is set; Refresh is
// for follow loops and for engines that disabled revalidation.
func (db *DB) Refresh(name string) (RefreshResult, error) { return db.e.Refresh(name) }

// Followed returns the names of attached tables whose TableSpec set
// Follow, sorted.
func (db *DB) Followed() []string { return db.e.Followed() }

// Tables returns the attached table names.
func (db *DB) Tables() []string { return db.e.Tables() }

// Schema returns the detected schema of an attached table.
func (db *DB) Schema(name string) (*schema.Schema, error) { return db.e.TableSchema(name) }

// Query executes one SELECT statement, fully buffered. Supported SQL:
// aggregates (sum/min/max/avg/count), inner equi-joins, conjunctive WHERE
// clauses (comparisons and BETWEEN, with optional `?` placeholders),
// GROUP BY, ORDER BY, LIMIT.
func (db *DB) Query(query string) (*Result, error) { return db.e.Query(query) }

// QueryContext is Query under a context: cancellation or timeout aborts
// the query cooperatively, stopping a raw-file scan between chunks instead
// of letting it finish the pass. The context's error is returned. Optional
// args bind `?` placeholders in the statement.
func (db *DB) QueryContext(ctx context.Context, query string, args ...any) (*Result, error) {
	return db.e.QueryContext(ctx, query, args...)
}

// QueryRows executes one SELECT statement and returns a streaming cursor.
// Optional args bind `?` placeholders. The cursor must be closed; iterate
// with Next/Scan and check Err afterwards.
//
// Plain single-table selections stream incrementally, and under the
// scanning policies (PartialLoadsV1, External — or any policy once the
// needed columns are loaded) a LIMIT or an early Close stops the raw-file
// scan mid-pass. Plans that need their whole input first (aggregates,
// GROUP BY, ORDER BY, joins) and the retaining loaders (PartialLoadsV2,
// Auto), which merge their scan into the adaptive store,
// materialize inside the first Next; cancelling ctx stops such a load
// between chunks.
func (db *DB) QueryRows(ctx context.Context, query string, args ...any) (*Rows, error) {
	return db.e.QueryRows(ctx, query, args...)
}

// Prepare parses and validates one SELECT statement with optional `?`
// placeholders for repeated execution. Parsing goes through the engine's
// bounded plan cache keyed by normalized SQL, so preparing (or ad-hoc
// querying) the same statement twice parses once; arguments are bound as
// typed values, never spliced into SQL text.
func (db *DB) Prepare(query string) (*Stmt, error) { return db.e.Prepare(query) }

// Explain returns the physical plan — including the adaptive load
// operators chosen for the current store state — without executing.
func (db *DB) Explain(query string) (string, error) { return db.e.Explain(query) }

// ExplainContext is Explain under a context.
func (db *DB) ExplainContext(ctx context.Context, query string) (string, error) {
	return db.e.ExplainContext(ctx, query)
}

// Policy returns the current loading policy.
func (db *DB) Policy() Policy { return db.e.Policy() }

// SetPolicy switches the loading policy for subsequent queries; loaded
// state remains usable.
func (db *DB) SetPolicy(p Policy) { db.e.SetPolicy(p) }

// Work returns the cumulative work counters (raw bytes read, values
// parsed, cache hits, ...) since Open.
func (db *DB) Work() WorkSnapshot { return db.e.Counters().Snapshot() }

// MemSize returns the bytes of adaptively loaded state currently held.
func (db *DB) MemSize() int64 { return db.e.Catalog().MemSize() }

// MemStats is the memory governor's accounting snapshot: the configured
// budget, bytes held and pinned, the number of registered adaptive
// structures, cumulative evictions, and the active eviction policy.
type MemStats = govern.Stats

// MemStats reports the memory governor's accounting. Used is the total
// bytes of governed adaptive state (columns, partial loads, positional
// maps, split files); with a MemoryBudget set, Used returns under the
// budget after each query completes (pinned in-flight state may exceed it
// transiently).
func (db *DB) MemStats() MemStats { return db.e.MemStats() }

// ResultCacheStats is the result cache's accounting snapshot: the
// configured byte bound, current footprint, entry count, and cumulative
// hit/miss/insert/eviction counters. Enabled is false (and everything
// else zero) when Options.ResultCacheBytes was 0.
type ResultCacheStats = qos.CacheStats

// ResultCacheStats reports the result cache's accounting.
func (db *DB) ResultCacheStats() ResultCacheStats { return db.e.ResultCacheStats() }

// TableStats describes the adaptive-store state of one attached table:
// which columns are fully or partially loaded, covered regions, positional
// map entries, and split-file footprint.
type TableStats = core.TableStats

// TableStats reports what the engine has adaptively built for a table.
func (db *DB) TableStats(name string) (TableStats, error) { return db.e.TableStats(name) }

// IngestStats is a table's append-ingestion accounting: rows and bytes
// folded in by incremental tail extensions, and when the last one ran.
type IngestStats = catalog.IngestStats

// Signature identifies one version of a raw file: size, mtime, and the
// prefix/tail checksums that certify prefix-stable growth.
type Signature = catalog.Signature

// SynopsisExport is one table's exported scan synopsis: the learned
// portion layout with per-portion zone maps, plus the raw file's signature
// so consumers can detect staleness.
type SynopsisExport struct {
	// Portions is the per-portion state; nil until a complete layout has
	// been learned (no scan finished yet, or the synopsis was dropped).
	Portions []synopsis.PortionState
	// Signature identifies the raw file version the synopsis describes.
	Signature catalog.Signature
}

// TableSynopsis exports a table's scan synopsis. Cluster coordinators use
// it (via nodbd's /cluster/synopsis) to skip whole shards whose value
// ranges provably cannot satisfy a query's predicates.
func (db *DB) TableSynopsis(name string) (SynopsisExport, error) {
	ps, sig, err := db.e.TableSynopsis(name)
	if err != nil {
		return SynopsisExport{}, err
	}
	return SynopsisExport{Portions: ps, Signature: sig}, nil
}
