// Package server exposes a nodb.DB over HTTP/JSON: many concurrent
// clients, one shared engine. It is the network layer of the NoDB
// reproduction — "here are my data files, here are my queries" as a
// service instead of a library call.
//
// The server adds the production concerns the engine itself stays out of:
// admission control (a fixed number of in-flight queries; excess requests
// get 429 instead of piling onto the engine), per-request timeouts layered
// on the client's own context, and work/health introspection endpoints.
// Cancellation is end-to-end: a client that disconnects or times out has
// its context cancelled, which stops the engine's raw-file scan between
// chunks via the QueryContext path.
//
// Endpoints (every path but the probes is under /v1):
//
//	POST /v1/query         {"query": "...", "timeout_ms": 0}  -> columns, rows, stats
//	GET  /v1/query?q=...                                      -> same
//	POST /v1/query/stream  (same request shape)               -> NDJSON row stream
//	POST /v1/explain       {"query": "..."} (or GET ?q=...)   -> physical plan text
//	GET  /v1/tables                                           -> per-table state (signature, rows, adaptation)
//	PUT  /v1/tables/{name} {"path": "...", "format": "",      -> attach (or replace) a table
//	                        "delimiter": "", "follow": false}
//	DELETE /v1/tables/{name}                                  -> detach a table
//	POST /v1/tables/{name}/refresh                            -> re-stat the raw file now; appended
//	                                                             rows are folded in incrementally
//	GET  /v1/schema?table=name                                -> detected schema
//	GET  /v1/stats                                            -> engine + server counters
//	GET  /healthz, /readyz                                    -> probes (unversioned)
//
// Every response echoes the request's X-Request-Id header (generating one
// when absent), and every non-200 body is the envelope
// {"error":{"code":"...","message":"..."}}. Tenancy: requests carry an
// X-API-Key header; with a tenant registry configured the key selects the
// tenant whose admission slots and memory share the query runs under
// (unknown keys are rejected with 401 or mapped to the default tenant,
// per the registry's policy).
//
// /v1/query buffers the whole result; /v1/query/stream writes one NDJSON
// line per row through the engine's streaming cursor, flushing
// incrementally — the first rows arrive while the raw-file scan is still
// running, and a client that disconnects mid-stream stops the scan
// between chunks.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nodb"
	"nodb/internal/core"
	"nodb/internal/errs"
	"nodb/internal/metrics"
	"nodb/internal/ndjson"
	"nodb/internal/qos"
	"nodb/internal/storage"
)

// Config configures a Server.
type Config struct {
	// DB is the shared engine. Required.
	DB *nodb.DB
	// MaxInFlight caps concurrently executing queries; further requests
	// are rejected with 429 until a slot frees (default 64).
	MaxInFlight int
	// DefaultTimeout bounds each query when the request does not set its
	// own (0 = no server-side timeout; the client context still applies).
	DefaultTimeout time.Duration
	// MaxTimeout caps the timeout a request may ask for (default: no cap).
	MaxTimeout time.Duration
	// MaxBodyBytes caps request body size (default 1 MiB).
	MaxBodyBytes int64
	// SnapshotInterval is how often the server flushes the DB's
	// auxiliary-structure snapshots to its cache dir, so a crash loses at
	// most one interval of adaptive learning. 0 disables the flusher;
	// the flush is a no-op when the DB has no CacheDir configured.
	SnapshotInterval time.Duration
	// Tenants maps API keys to tenants and splits MaxInFlight into
	// per-tenant admission slots by weight, so one tenant's burst cannot
	// consume another's capacity. nil serves everyone as one anonymous
	// tenant with the shared slot pool.
	Tenants *qos.Registry
	// FollowInterval is how often the server re-stats the raw files of
	// tables attached with follow=true, folding appended rows into the
	// learned structures incrementally (nodbd's -follow flag). 0 disables
	// the poll loop; explicit POST /v1/tables/{name}/refresh always works.
	FollowInterval time.Duration
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight <= 0 {
		return 64
	}
	return c.MaxInFlight
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes <= 0 {
		return 1 << 20
	}
	return c.MaxBodyBytes
}

// tenantState is one tenant's slice of the admission controller: a slot
// pool sized by the tenant's weight, plus request accounting.
type tenantState struct {
	weight float64
	sem    chan struct{}

	inFlight atomic.Int64
	served   atomic.Int64
	rejected atomic.Int64
}

// Server serves queries against one shared DB.
type Server struct {
	cfg     Config
	db      *nodb.DB
	sem     chan struct{}
	mux     *http.ServeMux
	tenants map[string]*tenantState // by tenant name; nil without a registry

	started time.Time

	// Periodic snapshot flusher lifecycle (nil channels when disabled).
	flushStop chan struct{}
	flushDone chan struct{}
	// Tail-follow poll loop lifecycle (nil channels when disabled).
	followStop chan struct{}
	followDone chan struct{}
	closeOnce  sync.Once

	// ready flips once the operator has linked all tables; /readyz serves
	// 503 until then so a load balancer doesn't route queries at a node
	// still attaching files.
	ready atomic.Bool

	// Request accounting, all monotonic except inFlight.
	inFlight   atomic.Int64
	served     atomic.Int64 // queries executed to completion (ok or error)
	rejected   atomic.Int64 // 429s from admission control
	cancelled  atomic.Int64 // queries that died to context cancel/timeout
	failed     atomic.Int64 // queries that returned any other error
	snapSaves  atomic.Int64 // periodic snapshot flushes that succeeded
	snapErrors atomic.Int64 // periodic snapshot flushes that failed

	refreshes     atomic.Int64 // explicit + follow-loop refreshes that completed
	refreshErrors atomic.Int64 // refreshes that failed (I/O errors re-statting)
	grown         atomic.Int64 // refreshes that folded in appended rows incrementally
	panics        atomic.Int64 // handler panics converted to 500s

	// followMu guards follow, the per-table backoff state of the follow
	// loop: a table whose refresh keeps failing is retried with
	// exponentially growing intervals instead of every poll tick.
	followMu sync.Mutex
	follow   map[string]*followState
}

// followState is one followed table's refresh-failure backoff.
type followState struct {
	failures int       // consecutive refresh failures
	nextTry  time.Time // do not re-poll before this
}

// followBackoffCap bounds the follow loop's per-table retry interval.
const followBackoffCap = 5 * time.Minute

// New creates a Server around cfg.DB.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		db:      cfg.DB,
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	globalSlots := cfg.maxInFlight()
	if cfg.Tenants != nil {
		// Split the slot pool by weight. Every tenant gets at least one
		// slot, so rounding can push the per-tenant sum past MaxInFlight;
		// the global pool grows to match so a free tenant slot is never
		// blocked by a rounding artifact.
		weights := cfg.Tenants.Weights()
		var sum float64
		for _, w := range weights {
			sum += w
		}
		s.tenants = make(map[string]*tenantState, len(weights))
		total := 0
		for name, w := range weights {
			slots := int(float64(cfg.maxInFlight())*w/sum + 0.5)
			if slots < 1 {
				slots = 1
			}
			total += slots
			s.tenants[name] = &tenantState{weight: w, sem: make(chan struct{}, slots)}
		}
		if total > globalSlots {
			globalSlots = total
		}
	}
	s.sem = make(chan struct{}, globalSlots)
	s.route("/query", s.handleQuery)
	s.route("/query/stream", s.handleQueryStream)
	s.route("/explain", s.handleExplain)
	s.route("/tables", s.handleTables)
	s.mux.Handle("PUT /v1/tables/{name}", s.wrap(s.handleTableAttach))
	s.mux.Handle("DELETE /v1/tables/{name}", s.wrap(s.handleTableDetach))
	s.mux.Handle("POST /v1/tables/{name}/refresh", s.wrap(s.handleTableRefresh))
	s.route("/schema", s.handleSchema)
	s.route("/stats", s.handleStats)
	s.mux.Handle("/healthz", s.wrap(s.handleHealthz))
	s.mux.Handle("/readyz", s.wrap(s.handleReadyz))
	if cfg.SnapshotInterval > 0 {
		s.flushStop = make(chan struct{})
		s.flushDone = make(chan struct{})
		go s.flushLoop(cfg.SnapshotInterval)
	}
	if cfg.FollowInterval > 0 {
		s.followStop = make(chan struct{})
		s.followDone = make(chan struct{})
		go s.followLoop(cfg.FollowInterval)
	}
	return s
}

// route mounts a handler at its /v1 path.
func (s *Server) route(path string, h http.HandlerFunc) {
	s.mux.Handle("/v1"+path, s.wrap(h))
}

// wrap applies the cross-cutting response contract: every response
// carries an X-Request-Id (echoed from the request, or generated), and a
// panicking handler is converted into a 500 with the v1 error envelope
// instead of killing the connection (and, without http.Server's
// recovery, the daemon).
func (s *Server) wrap(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				log.Printf("nodb/server: panic serving %s %s (request %s): %v\n%s",
					r.Method, r.URL.Path, id, rec, debug.Stack())
				if !sw.wrote {
					writeError(w, http.StatusInternalServerError, "internal error (request %s)", id)
				}
			}
		}()
		h(sw, r)
	})
}

// statusWriter tracks whether a handler wrote anything, so the panic
// recovery knows if a clean error envelope can still be sent.
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards streaming flushes (the NDJSON endpoints rely on it).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// newRequestID generates a fresh 16-hex-digit request id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// flushLoop periodically persists the DB's auxiliary structures so the
// adaptive learning accumulated under live traffic survives a crash, not
// just a graceful shutdown.
func (s *Server) flushLoop(interval time.Duration) {
	defer close(s.flushDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if err := s.db.Snapshot(); err != nil {
				s.snapErrors.Add(1)
			} else {
				s.snapSaves.Add(1)
			}
		case <-s.flushStop:
			return
		}
	}
}

// followLoop periodically refreshes every followed table, folding
// appended rows into the learned structures incrementally. Polling (not
// file notification) keeps the daemon dependency-free; the interval
// bounds staleness, and a poll that finds nothing new is one stat call
// per followed table.
func (s *Server) followLoop(interval time.Duration) {
	defer close(s.followDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			now := time.Now()
			for _, name := range s.db.Followed() {
				if !s.followDue(name, now) {
					continue
				}
				res, err := s.db.Refresh(name)
				if err != nil {
					s.refreshErrors.Add(1)
					s.followFailed(name, interval, now)
					continue
				}
				s.followOK(name)
				s.refreshes.Add(1)
				if res.Grown {
					s.grown.Add(1)
				}
			}
		case <-s.followStop:
			return
		}
	}
}

// followDue reports whether a followed table should be polled this tick,
// honoring its failure backoff.
func (s *Server) followDue(name string, now time.Time) bool {
	s.followMu.Lock()
	defer s.followMu.Unlock()
	st, ok := s.follow[name]
	if !ok {
		return true
	}
	return !now.Before(st.nextTry)
}

// followFailed records a refresh failure and doubles the table's retry
// delay: interval, 2*interval, 4*interval, ... capped at
// followBackoffCap. A permanently broken file then costs one refresh
// attempt per cap window instead of one per tick.
func (s *Server) followFailed(name string, interval time.Duration, now time.Time) {
	s.followMu.Lock()
	defer s.followMu.Unlock()
	if s.follow == nil {
		s.follow = make(map[string]*followState)
	}
	st := s.follow[name]
	if st == nil {
		st = &followState{}
		s.follow[name] = st
	}
	st.failures++
	delay := interval << (st.failures - 1)
	if st.failures > 20 || delay > followBackoffCap || delay <= 0 {
		delay = followBackoffCap
	}
	st.nextTry = now.Add(delay)
}

// followOK clears a table's backoff after a successful refresh.
func (s *Server) followOK(name string) {
	s.followMu.Lock()
	defer s.followMu.Unlock()
	delete(s.follow, name)
}

// followBackoffs snapshots the tables currently backing off: name →
// consecutive failures. Exposed in /v1/stats so an operator can see that
// follow mode is alive but a specific table keeps failing.
func (s *Server) followBackoffs() map[string]int {
	s.followMu.Lock()
	defer s.followMu.Unlock()
	if len(s.follow) == 0 {
		return nil
	}
	out := make(map[string]int, len(s.follow))
	for name, st := range s.follow {
		out[name] = st.failures
	}
	return out
}

// Close stops the periodic snapshot flusher and follow loop (if any) and
// performs a final flush. It does not close the DB — the caller owns
// that. Idempotent.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		if s.followStop != nil {
			close(s.followStop)
			<-s.followDone
		}
		if s.flushStop != nil {
			close(s.flushStop)
			<-s.flushDone
		}
		err = s.db.Snapshot()
	})
	return err
}

// Handler returns the HTTP handler; mount it on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler directly so a Server can be passed to
// httptest and http.Server without the extra Handler() hop.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// queryRequest is the /query and /explain request body.
type queryRequest struct {
	Query string `json:"query"`
	// TimeoutMS bounds this query; 0 uses the server default. Capped by
	// Config.MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// errorEnvelope is every non-200 body: a stable machine-readable code
// plus a human-readable message.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// streamError is the NDJSON in-band trailer for a query that dies
// mid-stream. It keeps the flat {"error": "..."} shape (headers are gone
// by then, so this is a line in a row stream, not an HTTP error body) —
// stream consumers parse it positionally.
type streamError struct {
	Error string `json:"error"`
}

// errCode maps an HTTP status to the envelope's stable error code.
func errCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "invalid_request"
	case http.StatusUnauthorized:
		return "unauthorized"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusUnprocessableEntity:
		return "unsupported_value"
	case http.StatusTooManyRequests:
		return "rate_limited"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusGatewayTimeout:
		return "timeout"
	default:
		return "internal"
	}
}

// queryReply is the /query response body. Rows arrive pre-encoded by
// storage.AppendJSONRows: an array of row arrays of plain JSON scalars.
type queryReply struct {
	Columns []string        `json:"columns"`
	Rows    json.RawMessage `json:"rows"`
	Stats   queryStatsJSON  `json:"stats"`
}

type queryStatsJSON struct {
	WallMicros int64            `json:"wall_us"`
	Work       metrics.Snapshot `json:"work"`
	Plan       string           `json:"plan"`
}

// statsResponse is the /stats response body.
type statsResponse struct {
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Policy        string                     `json:"policy"`
	MemBytes      int64                      `json:"mem_bytes"`
	Memory        nodb.MemStats              `json:"memory"`
	ResultCache   nodb.ResultCacheStats      `json:"result_cache"`
	Snapshot      nodb.SnapStats             `json:"snapshot"`
	Work          metrics.Snapshot           `json:"work"`
	Server        serverStatsJSON            `json:"server"`
	Tenants       map[string]tenantStatsJSON `json:"tenants,omitempty"`
	// Ingest is the per-table append-ingestion accounting (rows/bytes
	// folded in by incremental tail extensions); Followed lists the
	// tables the follow loop polls.
	Ingest   map[string]nodb.IngestStats `json:"ingest,omitempty"`
	Followed []string                    `json:"followed,omitempty"`
}

// tenantStatsJSON is one tenant's admission-control accounting; the
// governor's per-tenant memory accounting lives under memory.tenants.
type tenantStatsJSON struct {
	Weight   float64 `json:"weight"`
	Slots    int     `json:"slots"`
	InFlight int64   `json:"in_flight"`
	Served   int64   `json:"served"`
	Rejected int64   `json:"rejected"`
}

type serverStatsJSON struct {
	InFlight       int64 `json:"in_flight"`
	MaxInFlight    int   `json:"max_in_flight"`
	Served         int64 `json:"served"`
	Rejected       int64 `json:"rejected"`
	Cancelled      int64 `json:"cancelled"`
	Failed         int64 `json:"failed"`
	SnapshotSaves  int64 `json:"snapshot_saves"`
	SnapshotErrors int64 `json:"snapshot_errors"`
	Refreshes      int64 `json:"refreshes"`
	RefreshErrors  int64 `json:"refresh_errors"`
	Grown          int64 `json:"grown"`
	Panics         int64 `json:"panics"`
	// RefreshBackoff lists followed tables whose refreshes keep failing:
	// table → consecutive failures (absent when everything is healthy).
	RefreshBackoff map[string]int `json:"refresh_backoff,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeErrorCode(w, status, errCode(status), format, args...)
}

// writeErrorCode writes the error envelope with an explicit code, for the
// cases where the status's default code is too coarse (e.g. 401
// unknown_api_key vs plain unauthorized).
func writeErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorEnvelope{Error: errorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

// readQueryRequest accepts POST {"query": ...} or GET ?q=...&timeout_ms=...
func (s *Server) readQueryRequest(w http.ResponseWriter, r *http.Request) (queryRequest, bool) {
	var req queryRequest
	switch r.Method {
	case http.MethodGet:
		req.Query = r.URL.Query().Get("q")
		if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
			v, err := strconv.ParseInt(ms, 10, 64)
			if err != nil || v < 0 {
				writeError(w, http.StatusBadRequest, "invalid timeout_ms %q", ms)
				return queryRequest{}, false
			}
			req.TimeoutMS = v
		}
	case http.MethodPost:
		body := http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes())
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					"request body exceeds %d bytes", tooBig.Limit)
				return queryRequest{}, false
			}
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return queryRequest{}, false
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return queryRequest{}, false
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "missing query")
		return queryRequest{}, false
	}
	return req, true
}

// resolveTenant maps the request's X-API-Key to a tenant name. Without a
// registry everyone is the default tenant; with one, unknown keys are
// rejected with 401 or mapped to the default tenant per the registry's
// policy.
func (s *Server) resolveTenant(w http.ResponseWriter, r *http.Request) (string, bool) {
	if s.cfg.Tenants == nil {
		return qos.DefaultTenant, true
	}
	t, err := s.cfg.Tenants.Resolve(r.Header.Get("X-API-Key"))
	if err != nil {
		writeErrorCode(w, http.StatusUnauthorized, "unknown_api_key",
			"unknown API key (set X-API-Key to a configured tenant key)")
		return "", false
	}
	return t.Name, true
}

// admit reserves an execution slot, or rejects the request with 429.
// With tenants configured, the slot comes out of the tenant's own pool
// first, so a saturating tenant exhausts only its share and everyone
// else keeps admitting. The release func must be called when the query
// finishes.
func (s *Server) admit(w http.ResponseWriter, tenant string) (release func(), ok bool) {
	ts := s.tenants[tenant]
	if ts != nil {
		select {
		case ts.sem <- struct{}{}:
		default:
			ts.rejected.Add(1)
			s.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests,
				"tenant %q at capacity (%d queries in flight)", tenant, cap(ts.sem))
			return nil, false
		}
	}
	select {
	case s.sem <- struct{}{}:
		s.inFlight.Add(1)
		if ts != nil {
			ts.inFlight.Add(1)
		}
		return func() {
			s.inFlight.Add(-1)
			<-s.sem
			if ts != nil {
				ts.inFlight.Add(-1)
				<-ts.sem
			}
		}, true
	default:
		if ts != nil {
			<-ts.sem
		}
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"server at capacity (%d queries in flight)", cap(s.sem))
		return nil, false
	}
}

// queryContext derives the execution context: the client's own context
// (cancelled on disconnect) plus the request or server default timeout,
// tagged with the tenant so the engine attributes memory to it.
func (s *Server) queryContext(r *http.Request, req queryRequest, tenant string) (context.Context, context.CancelFunc) {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (timeout == 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	ctx := qos.WithTenant(r.Context(), tenant)
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return context.WithCancel(ctx)
}

// errStatus maps an execution error to an HTTP status.
func errStatus(err error) int {
	var pathErr *fs.PathError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Client went away (or server shutting down) mid-query.
		return http.StatusServiceUnavailable
	case errors.Is(err, errs.ErrRawIO), errors.Is(err, errs.ErrFileShrunk),
		errors.Is(err, errs.ErrDiskFull), errors.Is(err, errs.ErrSnapshotCorrupt):
		// Classified storage failures: server faults, not caller bugs.
		return http.StatusInternalServerError
	case errors.As(err, &pathErr):
		// The raw file vanished or became unreadable mid-query: a server
		// fault, not a caller bug.
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, ok := s.readQueryRequest(w, r)
	if !ok {
		return
	}
	tenant, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	release, ok := s.admit(w, tenant)
	if !ok {
		return
	}
	defer release()

	ctx, cancel := s.queryContext(r, req, tenant)
	defer cancel()

	res, err := s.db.QueryContext(ctx, req.Query)
	s.served.Add(1)
	if ts := s.tenants[tenant]; ts != nil {
		ts.served.Add(1)
	}
	if err != nil {
		code := errStatus(err)
		if code == http.StatusGatewayTimeout || code == http.StatusServiceUnavailable {
			s.cancelled.Add(1)
		} else {
			s.failed.Add(1)
		}
		writeError(w, code, "%v", err)
		return
	}

	// Encode the rows before any header goes out, so a value JSON cannot
	// represent still gets a proper error response instead of a 200 with
	// an empty body.
	rows, err := storage.AppendJSONRows(nil, res.Rows)
	if err != nil {
		s.failed.Add(1)
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, queryReply{
		Columns: res.Columns,
		Rows:    rows,
		Stats: queryStatsJSON{
			WallMicros: res.Stats.Wall.Microseconds(),
			Work:       res.Stats.Work,
			Plan:       res.Stats.Plan,
		},
	})
}

// handleQueryStream streams a result as NDJSON through the engine's
// cursor: a header line {"columns": [...]}, one JSON array per row, and a
// trailer line — {"stats": {...}} on success, {"error": "..."} if the
// query dies mid-stream. Each batch the cursor hands over (core.NextBatch)
// is encoded straight from its typed vectors onto the stream, which
// writes the first rows at once and then 64 KiB at a time (package
// ndjson), so the client sees data while the raw-file scan is still
// running; a disconnect cancels the request context, which stops the scan
// between chunks.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	req, ok := s.readQueryRequest(w, r)
	if !ok {
		return
	}
	tenant, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	release, ok := s.admit(w, tenant)
	if !ok {
		return
	}
	defer release()

	ctx, cancel := s.queryContext(r, req, tenant)
	defer cancel()

	rows, err := s.db.QueryRows(ctx, req.Query)
	s.served.Add(1)
	if ts := s.tenants[tenant]; ts != nil {
		ts.served.Add(1)
	}
	if err != nil {
		// Nothing streamed yet: a plain error response is still possible.
		code := errStatus(err)
		if code == http.StatusGatewayTimeout || code == http.StatusServiceUnavailable {
			s.cancelled.Add(1)
		} else {
			s.failed.Add(1)
		}
		writeError(w, code, "%v", err)
		return
	}
	defer rows.Close()

	st := ndjson.Start(w)
	defer st.Close()
	if err := st.Line(map[string][]string{"columns": rows.Columns()}); err != nil {
		s.cancelled.Add(1)
		return
	}
	for {
		cols, sel, n := core.NextBatch(rows)
		if n == 0 {
			break
		}
		err := st.AppendCols(cols, sel, n)
		var uve *json.UnsupportedValueError
		if errors.As(err, &uve) {
			// A value JSON cannot represent (NaN/Inf float). The client is
			// still connected, so report the failure in-band as the trailer.
			s.failed.Add(1)
			_ = st.Line(streamError{Error: err.Error()})
			return
		}
		if err != nil {
			// Client went away; rows.Close (deferred) stops the scan.
			s.cancelled.Add(1)
			return
		}
	}
	if err := rows.Err(); err != nil {
		// Headers are gone; report the failure in-band as the trailer.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			s.cancelled.Add(1)
		} else {
			s.failed.Add(1)
		}
		_ = st.Line(streamError{Error: err.Error()})
		return
	}
	stats := rows.Stats()
	_ = st.Line(map[string]queryStatsJSON{"stats": {
		WallMicros: stats.Wall.Microseconds(),
		Work:       stats.Work,
		Plan:       stats.Plan,
	}})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	req, ok := s.readQueryRequest(w, r)
	if !ok {
		return
	}
	tenant, ok := s.resolveTenant(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.queryContext(r, req, tenant)
	defer cancel()
	p, err := s.db.ExplainContext(ctx, req.Query)
	if err != nil {
		writeError(w, errStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"plan": p})
}

// signatureJSON renders a raw file's signature.
type signatureJSON struct {
	Size      int64  `json:"size"`
	ModTime   int64  `json:"mod_time"`
	PrefixCRC uint32 `json:"prefix_crc"`
	TailCRC   uint32 `json:"tail_crc"`
}

// tableInfoJSON is one table's entry in /v1/tables: identity, the raw
// file's signature, and the adaptation state built for it so far.
type tableInfoJSON struct {
	Name             string           `json:"name"`
	Path             string           `json:"path"`
	Follow           bool             `json:"follow"`
	Rows             int64            `json:"rows"`
	Signature        signatureJSON    `json:"signature"`
	DenseCols        int              `json:"dense_cols"`
	SparseCols       int              `json:"sparse_cols"`
	Regions          int              `json:"regions"`
	PosMapEntries    int              `json:"posmap_entries"`
	SynopsisPortions int              `json:"synopsis_portions"`
	SynopsisBounds   int              `json:"synopsis_bounds"`
	MemBytes         int64            `json:"mem_bytes"`
	Ingest           nodb.IngestStats `json:"ingest"`
}

// tableInfo assembles one table's /v1/tables entry.
func (s *Server) tableInfo(name string, followed map[string]bool) (tableInfoJSON, error) {
	st, err := s.db.TableStats(name)
	if err != nil {
		return tableInfoJSON{}, err
	}
	return tableInfoJSON{
		Name:   name,
		Path:   st.Path,
		Follow: followed[name],
		Rows:   st.Rows,
		Signature: signatureJSON{
			Size:      st.Signature.Size,
			ModTime:   st.Signature.ModTime,
			PrefixCRC: st.Signature.Prefix,
			TailCRC:   st.Signature.Tail,
		},
		DenseCols:        len(st.DenseCols),
		SparseCols:       len(st.SparseCols),
		Regions:          st.Regions,
		PosMapEntries:    st.PosMapEntries,
		SynopsisPortions: st.SynopsisPortions,
		SynopsisBounds:   st.SynopsisBounds,
		MemBytes:         st.MemBytes,
		Ingest:           st.Ingest,
	}, nil
}

// followedSet returns the followed table names as a set.
func (s *Server) followedSet() map[string]bool {
	set := map[string]bool{}
	for _, n := range s.db.Followed() {
		set[n] = true
	}
	return set
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	followed := s.followedSet()
	infos := []tableInfoJSON{}
	for _, name := range s.db.Tables() {
		info, err := s.tableInfo(name, followed)
		if err != nil {
			continue // detached concurrently
		}
		infos = append(infos, info)
	}
	writeJSON(w, http.StatusOK, map[string][]tableInfoJSON{"tables": infos})
}

// tableSpecJSON is the PUT /v1/tables/{name} request body.
type tableSpecJSON struct {
	// Path is the raw file to attach. Required.
	Path string `json:"path"`
	// Format forces "csv" or "ndjson"; empty sniffs.
	Format string `json:"format,omitempty"`
	// Delimiter forces the CSV delimiter (one character); empty sniffs.
	Delimiter string `json:"delimiter,omitempty"`
	// Follow marks the table for the daemon's tail-follow poll loop.
	Follow bool `json:"follow,omitempty"`
}

func (s *Server) handleTableAttach(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var spec tableSpecJSON
	body := http.MaxBytesReader(w, r.Body, s.cfg.maxBodyBytes())
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if spec.Path == "" {
		writeError(w, http.StatusBadRequest, "missing path")
		return
	}
	var delim byte
	if spec.Delimiter != "" {
		if len(spec.Delimiter) != 1 {
			writeError(w, http.StatusBadRequest, "delimiter must be a single character, got %q", spec.Delimiter)
			return
		}
		delim = spec.Delimiter[0]
	}
	err := s.db.Attach(name, nodb.TableSpec{
		Path:      spec.Path,
		Format:    spec.Format,
		Delimiter: delim,
		Follow:    spec.Follow,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	info, err := s.tableInfo(name, s.followedSet())
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleTableDetach(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.db.Detach(name); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"detached": name})
}

func (s *Server) handleTableRefresh(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, err := s.db.Schema(name); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	res, err := s.db.Refresh(name)
	if err != nil {
		s.refreshErrors.Add(1)
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.refreshes.Add(1)
	if res.Grown {
		s.grown.Add(1)
	}
	writeJSON(w, http.StatusOK, res)
}

// schemaJSON renders a detected schema.
type schemaJSON struct {
	Delimiter string          `json:"delimiter"`
	HasHeader bool            `json:"has_header"`
	Columns   []schemaColJSON `json:"columns"`
}

type schemaColJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("table")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing table parameter")
		return
	}
	sch, err := s.db.Schema(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	out := schemaJSON{
		Delimiter: string(sch.Delimiter),
		HasHeader: sch.HasHeader,
		Columns:   make([]schemaColJSON, 0, len(sch.Columns)),
	}
	for _, c := range sch.Columns {
		out.Columns = append(out.Columns, schemaColJSON{Name: c.Name, Type: c.Type.String()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var tenants map[string]tenantStatsJSON
	if len(s.tenants) > 0 {
		tenants = make(map[string]tenantStatsJSON, len(s.tenants))
		for name, ts := range s.tenants {
			tenants[name] = tenantStatsJSON{
				Weight:   ts.weight,
				Slots:    cap(ts.sem),
				InFlight: ts.inFlight.Load(),
				Served:   ts.served.Load(),
				Rejected: ts.rejected.Load(),
			}
		}
	}
	ingest := map[string]nodb.IngestStats{}
	for _, name := range s.db.Tables() {
		if st, err := s.db.TableStats(name); err == nil {
			ingest[name] = st.Ingest
		}
	}
	writeJSON(w, http.StatusOK, statsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Policy:        s.db.Policy().String(),
		MemBytes:      s.db.MemSize(),
		Memory:        s.db.MemStats(),
		ResultCache:   s.db.ResultCacheStats(),
		Snapshot:      s.db.SnapStats(),
		Work:          s.db.Work(),
		Tenants:       tenants,
		Ingest:        ingest,
		Followed:      s.db.Followed(),
		Server: serverStatsJSON{
			InFlight:       s.inFlight.Load(),
			MaxInFlight:    cap(s.sem),
			Served:         s.served.Load(),
			Rejected:       s.rejected.Load(),
			Cancelled:      s.cancelled.Load(),
			Failed:         s.failed.Load(),
			SnapshotSaves:  s.snapSaves.Load(),
			SnapshotErrors: s.snapErrors.Load(),
			Refreshes:      s.refreshes.Load(),
			RefreshErrors:  s.refreshErrors.Load(),
			Grown:          s.grown.Load(),
			Panics:         s.panics.Load(),
			RefreshBackoff: s.followBackoffs(),
		},
	})
}

// handleHealthz is the liveness probe. It answers 200 as long as the
// process serves requests; when the snapshot tier has degraded to
// memory-only after an out-of-space write, the body says so — the node
// still serves correct results, it just cannot persist adaptive state.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.db.SnapStats().Degraded {
		writeJSON(w, http.StatusOK, map[string]string{
			"status": "degraded",
			"reason": "snapshot tier disk full; running memory-only",
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// MarkReady declares the server ready to serve queries: every configured
// table is linked. Distinct from liveness — /healthz answers ok from the
// moment the process is up, /readyz only after MarkReady.
func (s *Server) MarkReady() { s.ready.Store(true) }

// handleReadyz is the readiness probe a load balancer uses to admit this
// node: 503 while starting (tables still linking), 200 with the linked
// table set once MarkReady has been called.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
		return
	}
	tables := s.db.Tables()
	if tables == nil {
		tables = []string{}
	}
	writeJSON(w, http.StatusOK, struct {
		Status string   `json:"status"`
		Tables []string `json:"tables"`
	}{Status: "ok", Tables: tables})
}
