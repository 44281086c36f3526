package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nodb/internal/exec"
	"nodb/internal/metrics"
	"nodb/internal/ndjson"
	"nodb/internal/qos"
	"nodb/internal/storage"
	"nodb/internal/synopsis"
)

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// Shards are the shard nodbd addresses (host:port or full URLs).
	// Required, at least one.
	Shards []string
	// HTTPClient is shared by all shard clients (nil: http.DefaultClient).
	HTTPClient *http.Client
	// ShardTimeout bounds each attempt against one shard (0 = none).
	ShardTimeout time.Duration
	// Retries is how many times a failed shard interaction is retried
	// (total attempts = Retries+1). Default 2.
	Retries int
	// RetryBackoff is the first retry's wait, doubling per retry
	// (default 100ms; negative = none).
	RetryBackoff time.Duration
	// SynopsisTTL bounds how long a cached shard synopsis is trusted for
	// pruning (default 5s).
	SynopsisTTL time.Duration
	// HealthInterval is the /readyz polling period (0 disables the
	// background poller; shards are then assumed ready and failures
	// surface through the query path).
	HealthInterval time.Duration
	// AllowPartial completes queries with partial results when a shard
	// stays dead, reporting the failed shards in the stats trailer.
	// When false a dead shard fails the whole query.
	AllowPartial bool
	// BreakerThreshold is how many consecutive failures open a shard's
	// circuit breaker (0 = default 3; breakers cannot be disabled, only
	// tuned — an open breaker costs nothing when shards are healthy).
	BreakerThreshold int
	// BreakerBackoff is the breaker's first open interval, doubling per
	// consecutive re-open up to a 30s cap (0 = default 500ms).
	BreakerBackoff time.Duration
	// MaxInFlight caps concurrently executing queries (default 64).
	MaxInFlight int
	// DefaultTimeout bounds each query when the request does not set its
	// own; MaxTimeout caps what a request may ask for.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes caps request body size (default 1 MiB).
	MaxBodyBytes int64
	// Tenants maps API keys to tenants at the cluster's front door:
	// unknown keys are rejected or defaulted per the registry's policy,
	// MaxInFlight is split into per-tenant admission slots by weight, and
	// the caller's key is forwarded to shards so their own accounting
	// agrees. nil serves everyone as one anonymous tenant.
	Tenants *qos.Registry
}

func (c CoordinatorConfig) maxInFlight() int {
	if c.MaxInFlight <= 0 {
		return 64
	}
	return c.MaxInFlight
}

func (c CoordinatorConfig) maxBodyBytes() int64 {
	if c.MaxBodyBytes <= 0 {
		return 1 << 20
	}
	return c.MaxBodyBytes
}

func (c CoordinatorConfig) retries() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return 2
	}
	return c.Retries
}

func (c CoordinatorConfig) retryBackoff() time.Duration {
	if c.RetryBackoff == 0 {
		return 100 * time.Millisecond
	}
	if c.RetryBackoff < 0 {
		return 0
	}
	return c.RetryBackoff
}

func (c CoordinatorConfig) synopsisTTL() time.Duration {
	if c.SynopsisTTL <= 0 {
		return 5 * time.Second
	}
	return c.SynopsisTTL
}

// Shard readiness as seen by the background poller.
const (
	shardUnknown int32 = iota // never probed: assume ready, let retry sort it out
	shardReady
	shardUnready
)

// synEntry is one shard's cached synopsis.
type synEntry struct {
	resp *SynopsisResponse
	at   time.Time
}

// coordTenant is one tenant's slice of the coordinator's admission
// controller, mirroring the single-node server's tenantState.
type coordTenant struct {
	weight float64
	sem    chan struct{}

	inFlight atomic.Int64
	served   atomic.Int64
	rejected atomic.Int64
}

// Coordinator fans queries out to shard nodbd instances and merges their
// partial streams into one result. It serves the same HTTP surface as a
// single-node server (/v1/query, /v1/query/stream, /v1/explain,
// /v1/tables, /v1/schema, /v1/stats, /healthz, /readyz), so clients
// cannot tell a coordinator from a node — except for the extra "cluster"
// block in stats trailers.
type Coordinator struct {
	cfg     CoordinatorConfig
	shards  []*ShardClient
	mux     *http.ServeMux
	sem     chan struct{}
	tenants map[string]*coordTenant // by tenant name; nil without a registry

	started time.Time
	work    metrics.Counters // cluster-wide work counters across queries

	ready []atomic.Int32 // per-shard readiness (shardUnknown/Ready/Unready)

	// breakers is the per-shard circuit-breaker array, aligned with
	// shards. Breakers persist across queries: consecutive failures
	// accumulate no matter which query observed them.
	breakers []*Breaker

	synMu    sync.Mutex
	synCache map[int]synEntry

	healthStop chan struct{}
	healthDone chan struct{}
	closeOnce  sync.Once

	inFlight  atomic.Int64
	served    atomic.Int64
	rejected  atomic.Int64
	cancelled atomic.Int64
	failed    atomic.Int64
}

// NewCoordinator builds a coordinator over cfg.Shards.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one shard")
	}
	c := &Coordinator{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		started:  time.Now(),
		ready:    make([]atomic.Int32, len(cfg.Shards)),
		breakers: make([]*Breaker, len(cfg.Shards)),
		synCache: map[int]synEntry{},
	}
	for i := range c.breakers {
		c.breakers[i] = NewBreaker(cfg.BreakerThreshold, cfg.BreakerBackoff, 0)
	}
	globalSlots := cfg.maxInFlight()
	if cfg.Tenants != nil {
		// Same split as the single-node server: proportional to weight,
		// at least one slot each, and the global pool grown to the
		// per-tenant sum so no tenant's floor is blocked by rounding.
		weights := cfg.Tenants.Weights()
		var sum float64
		for _, w := range weights {
			sum += w
		}
		c.tenants = make(map[string]*coordTenant, len(weights))
		total := 0
		for name, w := range weights {
			slots := int(float64(cfg.maxInFlight())*w/sum + 0.5)
			if slots < 1 {
				slots = 1
			}
			total += slots
			c.tenants[name] = &coordTenant{weight: w, sem: make(chan struct{}, slots)}
		}
		if total > globalSlots {
			globalSlots = total
		}
	}
	c.sem = make(chan struct{}, globalSlots)
	for _, addr := range cfg.Shards {
		c.shards = append(c.shards, NewShardClient(addr, cfg.HTTPClient))
	}
	c.route("/query", c.handleQuery)
	c.route("/query/stream", c.handleQueryStream)
	c.route("/explain", c.handleExplain)
	c.route("/tables", c.handleTables)
	c.route("/schema", c.handleSchema)
	c.route("/stats", c.handleStats)
	c.mux.Handle("/healthz", wrapHandler(c.handleHealthz))
	c.mux.Handle("/readyz", wrapHandler(c.handleReadyz))
	if cfg.HealthInterval > 0 {
		c.healthStop = make(chan struct{})
		c.healthDone = make(chan struct{})
		go c.healthLoop(cfg.HealthInterval)
	}
	return c, nil
}

// route mounts a handler at its /v1 path, mirroring the single-node
// server so clients cannot tell a coordinator from a node.
func (c *Coordinator) route(path string, h http.HandlerFunc) {
	c.mux.Handle("/v1"+path, wrapHandler(h))
}

// wrapHandler applies the shared response contract: an X-Request-Id on
// every response.
func wrapHandler(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set("X-Request-Id", id)
		h(w, r)
	})
}

// newRequestID generates a fresh 16-hex-digit request id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Close stops the health poller. Idempotent.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		if c.healthStop != nil {
			close(c.healthStop)
			<-c.healthDone
		}
	})
	return nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Work returns the coordinator's cumulative cluster work counters.
func (c *Coordinator) Work() metrics.Snapshot { return c.work.Snapshot() }

// healthLoop marks shard readiness in the background so queries admit
// only shards believed alive, without paying a probe per query.
func (c *Coordinator) healthLoop(interval time.Duration) {
	defer close(c.healthDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	probe := func() {
		var wg sync.WaitGroup
		for i := range c.shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), c.probeTimeout())
				defer cancel()
				if err := c.shards[i].Ready(ctx); err != nil {
					c.ready[i].Store(shardUnready)
				} else {
					c.ready[i].Store(shardReady)
				}
			}(i)
		}
		wg.Wait()
	}
	probe()
	for {
		select {
		case <-tick.C:
			probe()
		case <-c.healthStop:
			return
		}
	}
}

func (c *Coordinator) probeTimeout() time.Duration {
	if c.cfg.ShardTimeout > 0 && c.cfg.ShardTimeout < 2*time.Second {
		return c.cfg.ShardTimeout
	}
	return 2 * time.Second
}

// shardSynopsis returns shard i's synopsis, from cache when fresh. A
// fetch failure returns nil — pruning is opportunistic, never a query
// failure.
func (c *Coordinator) shardSynopsis(ctx context.Context, i int) *SynopsisResponse {
	c.synMu.Lock()
	e, ok := c.synCache[i]
	c.synMu.Unlock()
	if ok && time.Since(e.at) < c.cfg.synopsisTTL() {
		return e.resp
	}
	fctx, cancel := context.WithTimeout(ctx, c.probeTimeout())
	defer cancel()
	resp, err := c.shards[i].Synopsis(fctx)
	if err != nil {
		return nil
	}
	c.synMu.Lock()
	c.synCache[i] = synEntry{resp: resp, at: time.Now()}
	c.synMu.Unlock()
	return resp
}

// queryClusterStats accumulates one query's cluster-level outcomes;
// retries and bytes arrive from per-shard goroutines.
type queryClusterStats struct {
	shardsTotal int
	pruned      int
	retries     atomic.Int64
	bytes       atomic.Int64
	rows        atomic.Int64

	mu     sync.Mutex
	failed []string
}

func (st *queryClusterStats) fail(shard string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, f := range st.failed {
		if f == shard {
			return
		}
	}
	st.failed = append(st.failed, shard)
}

func (st *queryClusterStats) failedShards() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]string(nil), st.failed...)
}

// clusterStatsJSON is the "cluster" block of coordinator responses.
type clusterStatsJSON struct {
	ShardsTotal    int      `json:"shards_total"`
	ShardsPruned   int      `json:"shards_pruned"`
	ShardRetries   int64    `json:"shard_retries"`
	PartialResults bool     `json:"partial_results"`
	FailedShards   []string `json:"failed_shards,omitempty"`
	BytesMerged    int64    `json:"bytes_merged"`
	RowsMerged     int64    `json:"rows_merged"`
}

func (st *queryClusterStats) json() clusterStatsJSON {
	failed := st.failedShards()
	return clusterStatsJSON{
		ShardsTotal:    st.shardsTotal,
		ShardsPruned:   st.pruned,
		ShardRetries:   st.retries.Load(),
		PartialResults: len(failed) > 0,
		FailedShards:   failed,
		BytesMerged:    st.bytes.Load(),
		RowsMerged:     st.rows.Load(),
	}
}

// fold accumulates the query's outcomes into the coordinator-wide work
// counters.
func (c *Coordinator) fold(st *queryClusterStats) {
	c.work.AddShardsPruned(int64(st.pruned))
	c.work.AddShardRetries(st.retries.Load())
	c.work.AddShardBytesMerged(st.bytes.Load())
	if len(st.failedShards()) > 0 {
		c.work.AddPartialResults(1)
	}
}

// coordStatsJSON is the coordinator's query stats trailer.
type coordStatsJSON struct {
	WallMicros int64            `json:"wall_us"`
	Plan       string           `json:"plan"`
	Cluster    clusterStatsJSON `json:"cluster"`
}

// scatterResult is one executed query: the final columns and either a
// streaming iterator (ModeConcat/ModeSortMerge) or materialized rows
// (ModeAgg/ModeGroupAgg; iter is a slice iterator over them). cleanup
// must be called when consumption ends, successful or not.
type scatterResult struct {
	columns []string
	iter    exec.RowIter
	cleanup func()
	stats   *queryClusterStats
	plan    *ScatterPlan
}

// scatterError wraps a fatal scatter failure with its HTTP status.
type scatterError struct {
	status int
	err    error
}

func (e *scatterError) Error() string { return e.err.Error() }
func (e *scatterError) Unwrap() error { return e.err }

func scatterErrf(status int, format string, args ...any) *scatterError {
	return &scatterError{status: status, err: fmt.Errorf(format, args...)}
}

// shardFatal converts a terminal shard error into the scatter error the
// client sees: a shard's own 4xx (it rejected the query) passes through,
// anything else is a bad-gateway-style upstream failure.
func shardFatal(err error) *scatterError {
	var se *ShardError
	if errors.As(err, &se) && se.Status >= 400 && se.Status < 500 && se.Status != http.StatusTooManyRequests {
		return &scatterError{status: se.Status, err: err}
	}
	return &scatterError{status: http.StatusBadGateway, err: err}
}

// candidates applies health admission and synopsis pruning, returning the
// shard indices to query. Shards marked unready by the poller get one
// on-demand probe — a shard that recovered between polls is re-admitted
// immediately; one still dead is declared failed without burning the
// query's retry budget on it.
func (c *Coordinator) candidates(ctx context.Context, plan *ScatterPlan, st *queryClusterStats) []int {
	var alive []int
	for i := range c.shards {
		if c.ready[i].Load() == shardUnready {
			pctx, cancel := context.WithTimeout(ctx, c.probeTimeout())
			err := c.shards[i].Ready(pctx)
			cancel()
			if err != nil {
				st.fail(c.shards[i].Name)
				continue
			}
			c.ready[i].Store(shardReady)
		}
		alive = append(alive, i)
	}
	if len(plan.Where) == 0 || len(alive) == 0 {
		return alive
	}
	// Synopsis pruning: drop shards whose zone maps prove zero qualifying
	// rows. Keep at least one alive shard so the query retains a stream
	// to source the header from — the kept shard's own portion pruning
	// skips the raw I/O anyway.
	var kept []int
	for _, i := range alive {
		syn := c.shardSynopsis(ctx, i)
		if syn == nil {
			kept = append(kept, i)
			continue
		}
		ts, ok := syn.Tables[plan.Table]
		if !ok || len(ts.Portions) == 0 {
			kept = append(kept, i)
			continue
		}
		conj, ok := bindConjunction(plan.Where, ts)
		if !ok {
			kept = append(kept, i)
			continue
		}
		if synopsis.SkippableAll(ts.PortionStates(), conj) && !(len(kept) == 0 && i == alive[len(alive)-1]) {
			st.pruned++
			continue
		}
		kept = append(kept, i)
	}
	return kept
}

// executeScatter runs one query across the cluster.
func (c *Coordinator) executeScatter(ctx context.Context, query string) (*scatterResult, *scatterError) {
	plan, err := BuildScatterPlan(query)
	if err != nil {
		return nil, &scatterError{status: http.StatusBadRequest, err: err}
	}
	st := &queryClusterStats{shardsTotal: len(c.shards)}
	cand := c.candidates(ctx, plan, st)
	if len(cand) == 0 {
		if failed := st.failedShards(); len(failed) > 0 {
			return nil, scatterErrf(http.StatusBadGateway, "cluster: all shards unavailable: %v", failed)
		}
		return nil, scatterErrf(http.StatusBadGateway, "cluster: no shards available")
	}
	switch plan.Mode {
	case ModeConcat, ModeSortMerge:
		return c.runStreaming(ctx, plan, cand, st)
	default:
		return c.runAggregate(ctx, plan, cand, st)
	}
}

// runStreaming executes ModeConcat/ModeSortMerge: open every candidate's
// stream concurrently, then merge them in shard order through buffered
// prefetchers so all shards stay busy while the merge pulls
// single-threaded.
func (c *Coordinator) runStreaming(ctx context.Context, plan *ScatterPlan, cand []int, st *queryClusterStats) (*scatterResult, *scatterError) {
	sctx, cancel := context.WithCancel(ctx)
	iters := make([]*shardIter, len(cand))
	primeErrs := make([]error, len(cand))
	var wg sync.WaitGroup
	for j, i := range cand {
		iters[j] = newShardIter(sctx, c.shards[i], plan.PushedSQL,
			c.cfg.retries(), c.cfg.retryBackoff(), c.cfg.ShardTimeout,
			func() { st.retries.Add(1) }, c.breakers[i])
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			primeErrs[j] = iters[j].Prime()
		}(j)
	}
	wg.Wait()

	var inputs []exec.RowIter
	var buffers []*bufferedIter
	names := map[int]string{} // merge-input index -> shard name
	var columns []string
	var firstErr error
	for j := range cand {
		if primeErrs[j] != nil {
			if firstErr == nil {
				firstErr = primeErrs[j]
			}
			st.fail(c.shards[cand[j]].Name)
			continue
		}
		if columns == nil {
			columns = iters[j].Columns()
		}
		names[len(inputs)] = c.shards[cand[j]].Name
		b := newBufferedIter(iters[j])
		buffers = append(buffers, b)
		inputs = append(inputs, b)
	}
	cleanup := func() {
		cancel()
		for _, b := range buffers {
			st.bytes.Add(b.StopWait())
		}
	}
	if len(inputs) == 0 {
		cleanup()
		return nil, shardFatal(firstErr)
	}
	if firstErr != nil && !c.cfg.AllowPartial {
		cleanup()
		return nil, shardFatal(firstErr)
	}

	onErr := func(input int, err error) bool {
		if !c.cfg.AllowPartial {
			return false
		}
		st.fail(names[input])
		return true
	}
	var merged exec.RowIter
	if plan.Mode == ModeSortMerge {
		keys, err := resolveOrder(plan.Order, columns)
		if err != nil {
			cleanup()
			return nil, &scatterError{status: http.StatusBadRequest, err: err}
		}
		merged = exec.NewMergeSorted(inputs, keys, plan.Limit, onErr)
	} else {
		merged = exec.NewConcat(inputs, plan.Limit, onErr)
	}
	return &scatterResult{columns: columns, iter: merged, cleanup: cleanup, stats: st, plan: plan}, nil
}

// runAggregate executes ModeAgg/ModeGroupAgg: drain every candidate's
// partial rows concurrently, then re-aggregate in shard order. A shard
// that fails mid-drain is discarded whole — partials are all-or-nothing
// per shard, so a survivor set still merges to the exact answer over the
// shards it covers.
func (c *Coordinator) runAggregate(ctx context.Context, plan *ScatterPlan, cand []int, st *queryClusterStats) (*scatterResult, *scatterError) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type drainResult struct {
		rows [][]storage.Value
		err  error
	}
	results := make([]drainResult, len(cand))
	var wg sync.WaitGroup
	for j, i := range cand {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			it := newShardIter(sctx, c.shards[i], plan.PushedSQL,
				c.cfg.retries(), c.cfg.retryBackoff(), c.cfg.ShardTimeout,
				func() { st.retries.Add(1) }, c.breakers[i])
			defer func() { st.bytes.Add(it.Bytes()); it.Close() }()
			rows, err := exec.DrainRowIter(it)
			results[j] = drainResult{rows: rows, err: err}
		}(j, i)
	}
	wg.Wait()

	var survivors [][][]storage.Value
	var firstErr error
	for j := range cand {
		if results[j].err != nil {
			if firstErr == nil {
				firstErr = results[j].err
			}
			st.fail(c.shards[cand[j]].Name)
			continue
		}
		survivors = append(survivors, results[j].rows)
	}
	if len(survivors) == 0 {
		return nil, shardFatal(firstErr)
	}
	if firstErr != nil && !c.cfg.AllowPartial {
		return nil, shardFatal(firstErr)
	}

	var rows [][]storage.Value
	if plan.Mode == ModeAgg {
		m := exec.NewAggMerger(plan.Specs, plan.SentinelCol)
		for _, shardRows := range survivors {
			for _, r := range shardRows {
				m.Absorb(r)
			}
		}
		rows = [][]storage.Value{m.Result()}
	} else {
		m := exec.NewGroupMerger(plan.KeyCols, plan.Specs)
		for _, shardRows := range survivors {
			for _, r := range shardRows {
				m.Absorb(r)
			}
		}
		rows = m.Rows()
		if len(plan.Order) > 0 {
			keys, err := resolveOrder(plan.Order, plan.Columns)
			if err != nil {
				return nil, &scatterError{status: http.StatusBadRequest, err: err}
			}
			exec.SortRows(rows, keys)
		}
		rows = exec.LimitRows(rows, int(plan.Limit))
	}
	return &scatterResult{
		columns: plan.Columns,
		iter:    exec.NewSliceIter(rows),
		cleanup: func() {},
		stats:   st,
		plan:    plan,
	}, nil
}

// resolveOrder binds ORDER BY names to output column indices.
func resolveOrder(order []OrderKey, columns []string) ([]exec.SortKey, error) {
	keys := make([]exec.SortKey, 0, len(order))
	for _, o := range order {
		idx := -1
		for i, name := range columns {
			if name == o.Name {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("cluster: ORDER BY column %q must appear in the select list", o.Name)
		}
		keys = append(keys, exec.SortKey{Index: idx, Desc: o.Desc})
	}
	return keys, nil
}

// planString renders the scatter plan for stats trailers and /explain.
func planString(plan *ScatterPlan, st *queryClusterStats) string {
	return fmt.Sprintf("scatter(%s) shards=%d pruned=%d push=%q",
		plan.Mode, st.shardsTotal, st.pruned, plan.PushedSQL)
}

// ---- HTTP surface ----

type queryRequest struct {
	Query     string `json:"query"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// errorResponse is the NDJSON in-band stream trailer for a query that
// dies mid-stream; the shard-side merge path parses this flat shape.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError emits the v1 error envelope {"error":{"code","message"}},
// matching the single-node server byte for byte.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	code := "internal"
	switch status {
	case http.StatusBadRequest:
		code = "invalid_request"
	case http.StatusUnauthorized:
		code = "unauthorized"
	case http.StatusNotFound:
		code = "not_found"
	case http.StatusMethodNotAllowed:
		code = "method_not_allowed"
	case http.StatusRequestEntityTooLarge:
		code = "payload_too_large"
	case http.StatusUnprocessableEntity:
		code = "unsupported_value"
	case http.StatusTooManyRequests:
		code = "rate_limited"
	case http.StatusBadGateway:
		code = "upstream_failed"
	case http.StatusServiceUnavailable:
		code = "unavailable"
	case http.StatusGatewayTimeout:
		code = "timeout"
	}
	writeJSON(w, status, errorEnvelope{Error: errorBody{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}

type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (c *Coordinator) readQueryRequest(w http.ResponseWriter, r *http.Request) (queryRequest, bool) {
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
		body := http.MaxBytesReader(w, r.Body, c.cfg.maxBodyBytes())
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

// resolveTenant maps the request's X-API-Key through the registry.
// Without a registry every caller is the anonymous tenant ("", ok).
func (c *Coordinator) resolveTenant(w http.ResponseWriter, r *http.Request) (string, bool) {
	if c.cfg.Tenants == nil {
		return "", true
	}
	t, err := c.cfg.Tenants.Resolve(r.Header.Get("X-API-Key"))
	if err != nil {
		writeJSON(w, http.StatusUnauthorized, errorEnvelope{Error: errorBody{
			Code:    "unknown_api_key",
			Message: "unknown API key (set X-API-Key to a configured tenant key)",
		}})
		return "", false
	}
	return t.Name, true
}

func (c *Coordinator) admit(w http.ResponseWriter, tenant string) (release func(), ok bool) {
	ts := c.tenants[tenant]
	if ts != nil {
		select {
		case ts.sem <- struct{}{}:
		default:
			ts.rejected.Add(1)
			c.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests,
				"tenant %q at capacity (%d queries in flight)", tenant, cap(ts.sem))
			return nil, false
		}
	}
	select {
	case c.sem <- struct{}{}:
		c.inFlight.Add(1)
		if ts != nil {
			ts.inFlight.Add(1)
		}
		return func() {
			c.inFlight.Add(-1)
			<-c.sem
			if ts != nil {
				ts.inFlight.Add(-1)
				<-ts.sem
			}
		}, true
	default:
		if ts != nil {
			<-ts.sem
			ts.rejected.Add(1)
		}
		c.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"coordinator at capacity (%d queries in flight)", cap(c.sem))
		return nil, false
	}
}

func (c *Coordinator) queryContext(r *http.Request, req queryRequest, tenant string) (context.Context, context.CancelFunc) {
	timeout := c.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if c.cfg.MaxTimeout > 0 && (timeout == 0 || timeout > c.cfg.MaxTimeout) {
		timeout = c.cfg.MaxTimeout
	}
	ctx := qos.WithTenant(r.Context(), tenant)
	if key := r.Header.Get("X-API-Key"); key != "" {
		// Carry the caller's identity so shard requests run as the caller's
		// tenant, not as the coordinator.
		ctx = qos.WithAPIKey(ctx, key)
	}
	if timeout > 0 {
		return context.WithTimeout(ctx, timeout)
	}
	return context.WithCancel(ctx)
}

func (c *Coordinator) countOutcome(code int) {
	if code == http.StatusGatewayTimeout || code == http.StatusServiceUnavailable {
		c.cancelled.Add(1)
	} else {
		c.failed.Add(1)
	}
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	tenant, ok := c.resolveTenant(w, r)
	if !ok {
		return
	}
	req, ok := c.readQueryRequest(w, r)
	if !ok {
		return
	}
	release, ok := c.admit(w, tenant)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := c.queryContext(r, req, tenant)
	defer cancel()

	start := time.Now()
	res, serr := c.executeScatter(ctx, req.Query)
	c.served.Add(1)
	if ts := c.tenants[tenant]; ts != nil {
		ts.served.Add(1)
	}
	if serr != nil {
		c.countOutcome(serr.status)
		writeError(w, serr.status, "%v", serr.err)
		return
	}
	rows, err := exec.DrainRowIter(res.iter)
	res.cleanup()
	res.stats.rows.Add(int64(len(rows)))
	c.fold(res.stats)
	if err != nil {
		c.failed.Add(1)
		writeError(w, http.StatusBadGateway, "%v", err)
		return
	}
	// Encode the rows before any header goes out, so a value JSON cannot
	// represent still gets a proper error response.
	out, err := storage.AppendJSONRows(nil, rows)
	if err != nil {
		c.failed.Add(1)
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Columns []string        `json:"columns"`
		Rows    json.RawMessage `json:"rows"`
		Stats   coordStatsJSON  `json:"stats"`
	}{
		Columns: res.columns,
		Rows:    out,
		Stats: coordStatsJSON{
			WallMicros: time.Since(start).Microseconds(),
			Plan:       planString(res.plan, res.stats),
			Cluster:    res.stats.json(),
		},
	})
}

// handleQueryStream streams the merged result as NDJSON with the same
// framing as a single node: a {"columns": [...]} header, one JSON array
// per row, and a {"stats": {...}} trailer — carrying the cluster block
// with partial_results and the failed shards when degraded.
func (c *Coordinator) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	tenant, ok := c.resolveTenant(w, r)
	if !ok {
		return
	}
	req, ok := c.readQueryRequest(w, r)
	if !ok {
		return
	}
	release, ok := c.admit(w, tenant)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := c.queryContext(r, req, tenant)
	defer cancel()

	start := time.Now()
	res, serr := c.executeScatter(ctx, req.Query)
	c.served.Add(1)
	if ts := c.tenants[tenant]; ts != nil {
		ts.served.Add(1)
	}
	if serr != nil {
		c.countOutcome(serr.status)
		writeError(w, serr.status, "%v", serr.err)
		return
	}
	defer func() {
		res.cleanup()
		c.fold(res.stats)
	}()

	st := ndjson.Start(w)
	defer st.Close()
	if err := st.Line(map[string][]string{"columns": res.columns}); err != nil {
		c.cancelled.Add(1)
		return
	}
	for {
		row, ok, rerr := res.iter.Next()
		if rerr != nil {
			c.failed.Add(1)
			_ = st.Line(errorResponse{Error: rerr.Error()})
			return
		}
		if !ok {
			break
		}
		res.stats.rows.Add(1)
		// The stream's write policy batches the merged rows: the first
		// goes out at once, the rest when the pending buffer fills or the
		// stream's ticker fires.
		werr := st.Append(row)
		var uve *json.UnsupportedValueError
		if errors.As(werr, &uve) {
			c.failed.Add(1)
			_ = st.Line(errorResponse{Error: werr.Error()})
			return
		}
		if werr != nil {
			c.cancelled.Add(1)
			return
		}
	}
	_ = st.Line(map[string]coordStatsJSON{"stats": {
		WallMicros: time.Since(start).Microseconds(),
		Plan:       planString(res.plan, res.stats),
		Cluster:    res.stats.json(),
	}})
}

// handleExplain compiles the scatter plan without executing it.
func (c *Coordinator) handleExplain(w http.ResponseWriter, r *http.Request) {
	if _, ok := c.resolveTenant(w, r); !ok {
		return
	}
	req, ok := c.readQueryRequest(w, r)
	if !ok {
		return
	}
	plan, err := BuildScatterPlan(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"plan": fmt.Sprintf(
		"scatter(%s) shards=%d push=%q", plan.Mode, len(c.shards), plan.PushedSQL)})
}

// handleTables returns the union of shard table sets.
func (c *Coordinator) handleTables(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), c.probeTimeout())
	defer cancel()
	seen := map[string]bool{}
	var any bool
	for _, sc := range c.shards {
		names, err := sc.Tables(ctx)
		if err != nil {
			continue
		}
		any = true
		for _, n := range names {
			seen[n] = true
		}
	}
	if !any {
		writeError(w, http.StatusBadGateway, "cluster: no shard answered /tables")
		return
	}
	tables := make([]string, 0, len(seen))
	for n := range seen {
		tables = append(tables, n)
	}
	sort.Strings(tables)
	writeJSON(w, http.StatusOK, map[string][]string{"tables": tables})
}

// handleSchema proxies the first shard that answers; shards of one
// logical dataset share a schema by construction.
func (c *Coordinator) handleSchema(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("table")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing table parameter")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.probeTimeout())
	defer cancel()
	var lastErr error
	for _, sc := range c.shards {
		var out json.RawMessage
		if err := sc.getJSON(ctx, "/v1/schema?table="+name, &out); err != nil {
			lastErr = err
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(out)
		_, _ = w.Write([]byte("\n"))
		return
	}
	status := http.StatusBadGateway
	var se *ShardError
	if errors.As(lastErr, &se) && se.Status == http.StatusNotFound {
		status = http.StatusNotFound
	}
	writeError(w, status, "%v", lastErr)
}

type shardStatusJSON struct {
	Shard string `json:"shard"`
	State string `json:"state"`
	// Breaker is the shard's circuit-breaker state ("closed", "open",
	// "half-open"); BreakerOpened counts how often it has opened.
	Breaker       string `json:"breaker"`
	BreakerOpened int64  `json:"breaker_opened,omitempty"`
}

func (c *Coordinator) shardStates() []shardStatusJSON {
	out := make([]shardStatusJSON, len(c.shards))
	for i, sc := range c.shards {
		state := "unknown"
		switch c.ready[i].Load() {
		case shardReady:
			state = "ready"
		case shardUnready:
			state = "unready"
		}
		out[i] = shardStatusJSON{
			Shard:         sc.Name,
			State:         state,
			Breaker:       c.breakers[i].State(),
			BreakerOpened: c.breakers[i].Opened(),
		}
	}
	return out
}

// coordTenantStatsJSON mirrors the single-node server's per-tenant
// admission accounting so /stats reads the same either side of a
// coordinator.
type coordTenantStatsJSON struct {
	Weight   float64 `json:"weight"`
	Slots    int     `json:"slots"`
	InFlight int64   `json:"in_flight"`
	Served   int64   `json:"served"`
	Rejected int64   `json:"rejected"`
}

func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	var tenants map[string]coordTenantStatsJSON
	if len(c.tenants) > 0 {
		tenants = make(map[string]coordTenantStatsJSON, len(c.tenants))
		for name, ts := range c.tenants {
			tenants[name] = coordTenantStatsJSON{
				Weight:   ts.weight,
				Slots:    cap(ts.sem),
				InFlight: ts.inFlight.Load(),
				Served:   ts.served.Load(),
				Rejected: ts.rejected.Load(),
			}
		}
	}
	writeJSON(w, http.StatusOK, struct {
		UptimeSeconds float64           `json:"uptime_seconds"`
		Mode          string            `json:"mode"`
		Shards        []shardStatusJSON `json:"shards"`
		Work          metrics.Snapshot  `json:"work"`
		Server        struct {
			InFlight    int64 `json:"in_flight"`
			MaxInFlight int   `json:"max_in_flight"`
			Served      int64 `json:"served"`
			Rejected    int64 `json:"rejected"`
			Cancelled   int64 `json:"cancelled"`
			Failed      int64 `json:"failed"`
		} `json:"server"`
		Tenants map[string]coordTenantStatsJSON `json:"tenants,omitempty"`
	}{
		UptimeSeconds: time.Since(c.started).Seconds(),
		Mode:          "coordinator",
		Shards:        c.shardStates(),
		Work:          c.work.Snapshot(),
		Server: struct {
			InFlight    int64 `json:"in_flight"`
			MaxInFlight int   `json:"max_in_flight"`
			Served      int64 `json:"served"`
			Rejected    int64 `json:"rejected"`
			Cancelled   int64 `json:"cancelled"`
			Failed      int64 `json:"failed"`
		}{
			InFlight:    c.inFlight.Load(),
			MaxInFlight: cap(c.sem),
			Served:      c.served.Load(),
			Rejected:    c.rejected.Load(),
			Cancelled:   c.cancelled.Load(),
			Failed:      c.failed.Load(),
		},
		Tenants: tenants,
	})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports the coordinator ready when every shard admits
// queries. Without a background poller the shards are probed on demand.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if c.cfg.HealthInterval <= 0 {
		ctx, cancel := context.WithTimeout(r.Context(), c.probeTimeout())
		defer cancel()
		var wg sync.WaitGroup
		for i := range c.shards {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := c.shards[i].Ready(ctx); err != nil {
					c.ready[i].Store(shardUnready)
				} else {
					c.ready[i].Store(shardReady)
				}
			}(i)
		}
		wg.Wait()
	}
	states := c.shardStates()
	allReady := true
	for _, s := range states {
		if s.State != "ready" {
			allReady = false
		}
	}
	if !allReady {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "degraded", "shards": states,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "shards": states})
}
