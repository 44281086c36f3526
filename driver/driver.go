// Package driver registers nodb as a database/sql driver named "nodb",
// opening the whole database/sql ecosystem to the adaptive engine:
//
//	import _ "nodb/driver"
//
//	db, err := sql.Open("nodb", "link=events=./events.csv&policy=partial-v2")
//	stmt, err := db.Prepare("select a1, a2 from events where a1 between ? and ?")
//	rows, err := stmt.Query(10, 1000)
//
// The DSN is a URL query string. Keys:
//
//	link=NAME=PATH        attach a raw file as table NAME (repeatable)
//	policy=NAME           loading policy (columns, full, partial-v1,
//	                      partial-v2, splitfiles, external, auto)
//	splitdir=DIR          split-file directory (required for splitfiles)
//	mem=BYTES             memory budget for adaptive state (0 = unlimited)
//	evict=NAME            eviction policy under mem: cost (default) or lru
//	cachedir=DIR          persistent auxiliary-structure cache: snapshots
//	                      written on close, restored lazily after reopen,
//	                      eviction spills instead of discarding
//	workers=N             tokenization parallelism
//	chunk=BYTES           raw-file read chunk size
//	batchsize=N           rows per batch of the vectorized execution
//	                      pipeline (0 = default, 1024)
//	resultcache=BYTES     result cache budget: identical queries against
//	                      unchanged files answer from memory (0 = disabled)
//	tenant=NAME:KEY[:W]   declare a tenant with API key KEY and weight W
//	                      (repeatable); the engine's memory budget is
//	                      partitioned by weight
//	apikey=KEY            run this connection's queries as the tenant
//	                      owning KEY; with tenants declared, an unknown
//	                      key fails at sql.Open time
//
// Values follow URL escaping rules; paths containing '&' or '%' must be
// percent-encoded.
//
// One sql.DB shares one engine: every connection database/sql hands out is
// a lightweight handle onto the same adaptive store, so what one query
// loads, the next one reuses — exactly like the embedded API. Query
// results stream through the engine's cursor, so iterating a *sql.Rows
// pulls rows incrementally and closing it early stops the raw-file scan
// mid-pass. The engine is read-only from SQL: Exec and transactions return
// errors.
package driver

import (
	"context"
	"database/sql"
	sqldriver "database/sql/driver"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"

	"nodb"
	"nodb/internal/govern"
	"nodb/internal/qos"
)

func init() {
	sql.Register("nodb", &Driver{})
}

// Driver is the database/sql driver for nodb.
type Driver struct{}

// Open opens a one-off connection that owns its engine (legacy path; the
// pooling path is OpenConnector, which database/sql prefers).
func (d *Driver) Open(dsn string) (sqldriver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	conn, err := c.Connect(context.Background())
	if err != nil {
		return nil, err
	}
	conn.(*nodbConn).ownsDB = true
	return conn, nil
}

// OpenConnector parses the DSN, opens the shared engine and attaches the
// tables. DSN errors — including an apikey that matches no declared
// tenant — surface here, at sql.Open time.
func (d *Driver) OpenConnector(dsn string) (sqldriver.Connector, error) {
	cfg, err := ParseDSNConfig(dsn)
	if err != nil {
		return nil, err
	}
	tenant := qos.DefaultTenant
	if cfg.APIKey != "" && len(cfg.Options.Tenants) > 0 {
		reg, err := qos.NewRegistry(cfg.Options.Tenants, true)
		if err != nil {
			return nil, fmt.Errorf("nodb driver: %w", err)
		}
		t, err := reg.Resolve(cfg.APIKey)
		if err != nil {
			return nil, fmt.Errorf("nodb driver: apikey matches no declared tenant")
		}
		tenant = t.Name
	}
	db, err := nodb.OpenErr(cfg.Options)
	if err != nil {
		return nil, fmt.Errorf("nodb driver: %w", err)
	}
	for _, l := range cfg.Links {
		if err := db.Attach(l.Name, nodb.TableSpec{Path: l.Path}); err != nil {
			_ = db.Close()
			return nil, err
		}
	}
	return &Connector{drv: d, dsn: dsn, db: db, tenant: tenant, apikey: cfg.APIKey}, nil
}

// Link is one link=NAME=PATH table from a DSN.
type Link struct {
	Name, Path string
}

// Config is everything a DSN encodes: engine options, the tables to
// attach, and the connection's tenant identity.
type Config struct {
	Options nodb.Options
	Links   []Link
	// APIKey is the connection's tenant credential; queries run as the
	// tenant owning it.
	APIKey string
}

// ParseDSNConfig decodes a DSN.
func ParseDSNConfig(dsn string) (Config, error) {
	var cfg Config
	opts := &cfg.Options
	vals, err := url.ParseQuery(dsn)
	if err != nil {
		return cfg, fmt.Errorf("nodb driver: invalid DSN: %w", err)
	}
	for key, vv := range vals {
		for _, v := range vv {
			switch key {
			case "link":
				name, path, ok := strings.Cut(v, "=")
				if !ok || name == "" || path == "" {
					return cfg, fmt.Errorf("nodb driver: link %q is not NAME=PATH", v)
				}
				cfg.Links = append(cfg.Links, Link{Name: name, Path: path})
			case "policy":
				p, err := nodb.ParsePolicy(v)
				if err != nil {
					return cfg, fmt.Errorf("nodb driver: %w", err)
				}
				opts.Policy = p
			case "splitdir":
				opts.SplitDir = v
			case "cachedir":
				opts.CacheDir = v
			case "mem":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 0 {
					return cfg, fmt.Errorf("nodb driver: invalid mem %q", v)
				}
				opts.MemoryBudget = n
			case "evict":
				if _, err := govern.PolicyByName(v); err != nil {
					return cfg, fmt.Errorf("nodb driver: %w", err)
				}
				opts.EvictionPolicy = v
			case "workers":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return cfg, fmt.Errorf("nodb driver: invalid workers %q", v)
				}
				opts.Workers = n
			case "chunk":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return cfg, fmt.Errorf("nodb driver: invalid chunk %q", v)
				}
				opts.ChunkSize = n
			case "batchsize":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return cfg, fmt.Errorf("nodb driver: invalid batchsize %q", v)
				}
				opts.BatchSize = n
			case "resultcache":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 0 {
					return cfg, fmt.Errorf("nodb driver: invalid resultcache %q", v)
				}
				opts.ResultCacheBytes = n
			case "tenant":
				ts, err := qos.ParseTenantSpec(v)
				if err != nil {
					return cfg, fmt.Errorf("nodb driver: invalid tenant %q: %w", v, err)
				}
				opts.Tenants = append(opts.Tenants, ts...)
			case "apikey":
				cfg.APIKey = v
			default:
				return cfg, fmt.Errorf("nodb driver: unknown DSN key %q", key)
			}
		}
	}
	return cfg, nil
}

// Connector owns the shared engine for one sql.DB. database/sql calls
// Connect for every pooled connection; each gets a handle onto the same
// engine so adaptive state is shared across the pool. sql.DB.Close closes
// the connector, which closes the engine.
type Connector struct {
	drv    *Driver
	dsn    string
	db     *nodb.DB
	tenant string
	apikey string
}

// Connect hands out a connection sharing the engine.
func (c *Connector) Connect(context.Context) (sqldriver.Conn, error) {
	return &nodbConn{db: c.db, tenant: c.tenant, apikey: c.apikey}, nil
}

// Driver returns the parent driver.
func (c *Connector) Driver() sqldriver.Driver { return c.drv }

// Close shuts the shared engine down (called by sql.DB.Close).
func (c *Connector) Close() error { return c.db.Close() }

// DB exposes the underlying engine, for hybrid applications that want the
// native API (streaming cursor, work counters, policy switches) alongside
// database/sql.
func (c *Connector) DB() *nodb.DB { return c.db }

// errReadOnly rejects DML/DDL: the engine queries raw files in place.
var errReadOnly = errors.New("nodb: the engine is read-only; only SELECT is supported")

type nodbConn struct {
	db     *nodb.DB
	tenant string
	apikey string
	ownsDB bool // legacy Driver.Open path: the conn owns the engine
	closed bool
}

// tenantContext tags the execution context with the connection's tenant
// identity so the engine's governor attributes adaptive state to it.
func tenantContext(ctx context.Context, tenant, apikey string) context.Context {
	if tenant != "" {
		ctx = qos.WithTenant(ctx, tenant)
	}
	if apikey != "" {
		ctx = qos.WithAPIKey(ctx, apikey)
	}
	return ctx
}

// Prepare implements driver.Conn.
func (c *nodbConn) Prepare(query string) (sqldriver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

// PrepareContext implements driver.ConnPrepareContext.
func (c *nodbConn) PrepareContext(ctx context.Context, query string) (sqldriver.Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := c.db.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &nodbStmt{s: s, tenant: c.tenant, apikey: c.apikey}, nil
}

// Close implements driver.Conn. Connections are handles; only the legacy
// one-off path owns (and closes) the engine.
func (c *nodbConn) Close() error {
	c.closed = true
	if c.ownsDB {
		return c.db.Close()
	}
	return nil
}

// Begin implements driver.Conn; nodb has no transactions.
func (c *nodbConn) Begin() (sqldriver.Tx, error) {
	return nil, errors.New("nodb: transactions are not supported")
}

// Ping implements driver.Pinger.
func (c *nodbConn) Ping(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.closed {
		return sqldriver.ErrBadConn
	}
	return c.db.Ping()
}

// IsValid implements driver.Validator.
func (c *nodbConn) IsValid() bool { return !c.closed && c.db.Ping() == nil }

// QueryContext implements driver.QueryerContext: ad-hoc queries skip the
// Prepare round-trip and go straight to the engine's cursor (still through
// its plan cache).
func (c *nodbConn) QueryContext(ctx context.Context, query string, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	vals, err := namedValues(args)
	if err != nil {
		return nil, err
	}
	r, err := c.db.QueryRows(tenantContext(ctx, c.tenant, c.apikey), query, vals...)
	if err != nil {
		return nil, err
	}
	return &nodbRows{r: r}, nil
}

// ExecContext implements driver.ExecerContext; it always fails (read-only).
func (c *nodbConn) ExecContext(context.Context, string, []sqldriver.NamedValue) (sqldriver.Result, error) {
	return nil, errReadOnly
}

// namedValues converts driver arguments, rejecting named parameters (the
// SQL dialect has only ordinal `?` placeholders).
func namedValues(args []sqldriver.NamedValue) ([]any, error) {
	vals := make([]any, len(args))
	for i, a := range args {
		if a.Name != "" {
			return nil, fmt.Errorf("nodb: named parameter %q is not supported; use ordinal ?", a.Name)
		}
		vals[i] = a.Value
	}
	return vals, nil
}

type nodbStmt struct {
	s      *nodb.Stmt
	tenant string
	apikey string
}

// Close implements driver.Stmt.
func (s *nodbStmt) Close() error { return s.s.Close() }

// NumInput implements driver.Stmt; database/sql enforces the arity.
func (s *nodbStmt) NumInput() int { return s.s.NumParams() }

// Exec implements driver.Stmt; it always fails (read-only).
func (s *nodbStmt) Exec([]sqldriver.Value) (sqldriver.Result, error) {
	return nil, errReadOnly
}

// Query implements driver.Stmt.
func (s *nodbStmt) Query(args []sqldriver.Value) (sqldriver.Rows, error) {
	named := make([]sqldriver.NamedValue, len(args))
	for i, a := range args {
		named[i] = sqldriver.NamedValue{Ordinal: i + 1, Value: a}
	}
	return s.QueryContext(context.Background(), named)
}

// QueryContext implements driver.StmtQueryContext.
func (s *nodbStmt) QueryContext(ctx context.Context, args []sqldriver.NamedValue) (sqldriver.Rows, error) {
	vals, err := namedValues(args)
	if err != nil {
		return nil, err
	}
	r, err := s.s.QueryRows(tenantContext(ctx, s.tenant, s.apikey), vals...)
	if err != nil {
		return nil, err
	}
	return &nodbRows{r: r}, nil
}

// nodbRows adapts the engine's streaming cursor to driver.Rows. Rows flow
// through one at a time; closing early propagates to the cursor, which
// stops the raw-file scan mid-pass.
type nodbRows struct {
	r *nodb.Rows
}

// Columns implements driver.Rows.
func (r *nodbRows) Columns() []string { return r.r.Columns() }

// Close implements driver.Rows.
func (r *nodbRows) Close() error { return r.r.Close() }

// Next implements driver.Rows.
func (r *nodbRows) Next(dest []sqldriver.Value) error {
	if !r.r.Next() {
		if err := r.r.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	row := r.r.Row()
	for i, v := range row {
		switch v.Typ {
		case nodb.Int64:
			dest[i] = v.I
		case nodb.Float64:
			dest[i] = v.F
		default:
			dest[i] = v.S
		}
	}
	return nil
}
