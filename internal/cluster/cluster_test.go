package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nodb"
	"nodb/internal/cluster"
	"nodb/internal/csvgen"
	"nodb/internal/qos"
	"nodb/internal/server"
)

const testRows = 1200

// testSpec is the differential suite's table: a1 a random permutation of
// 0..rows-1 (selective predicates), a2 uniform over a small domain
// (group-by keys and ORDER BY ties), a3 sequential (contiguous per-shard
// ranges, so synopsis pruning has something to prune on).
func testSpec(rows int) csvgen.Spec {
	return csvgen.Spec{
		Rows: rows,
		Cols: 3,
		Seed: 21,
		ColSpecs: []csvgen.ColSpec{
			{Kind: csvgen.UniqueInts},
			{Kind: csvgen.UniformInts, Max: 7},
			{Kind: csvgen.SequentialInts},
		},
	}
}

// startNode links path as table "t" on a fresh DB and serves it.
func startNode(t *testing.T, path string) *httptest.Server {
	t.Helper()
	dir := t.TempDir()
	db := nodb.Open(nodb.Options{Policy: nodb.PartialLoadsV2, SplitDir: filepath.Join(dir, "splits")})
	t.Cleanup(func() { db.Close() })
	if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{DB: db})
	srv.MarkReady()
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// buildCluster generates n shard files plus the unsharded file, serves
// each shard on its own node, and returns the shard URLs and a single
// node over the whole table.
func buildCluster(t *testing.T, rows, n int) (shardURLs []string, single *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	full := filepath.Join(dir, "full.csv")
	if err := csvgen.WriteFile(full, testSpec(rows)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		spec := testSpec(rows)
		spec.ShardIndex, spec.ShardCount = i, n
		path := filepath.Join(dir, fmt.Sprintf("shard%d.csv", i))
		if err := csvgen.WriteFile(path, spec); err != nil {
			t.Fatal(err)
		}
		shardURLs = append(shardURLs, startNode(t, path).URL)
	}
	return shardURLs, startNode(t, full)
}

func startCoordinator(t *testing.T, cfg cluster.CoordinatorConfig) *httptest.Server {
	t.Helper()
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = time.Millisecond
	}
	coord, err := cluster.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	ts := httptest.NewServer(coord)
	t.Cleanup(ts.Close)
	return ts
}

// streamResult is one /query/stream response, split into its NDJSON
// frames.
type streamResult struct {
	header  string
	rows    []string
	trailer string // the {"stats": ...} line, empty if the stream errored
	errLine string // the {"error": ...} line, if any
}

func stream(t *testing.T, base, query string) streamResult {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"query": query})
	resp, err := http.Post(base+"/v1/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream %q: http %d: %s", query, resp.StatusCode, b)
	}
	var out streamResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case out.header == "":
			out.header = line
		case strings.HasPrefix(line, "["):
			out.rows = append(out.rows, line)
		case strings.HasPrefix(line, `{"stats"`):
			out.trailer = line
		case strings.HasPrefix(line, `{"error"`):
			out.errLine = line
		default:
			t.Fatalf("unexpected stream line: %s", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// clusterTrailer extracts the coordinator trailer's cluster block.
func clusterTrailer(t *testing.T, sr streamResult) map[string]any {
	t.Helper()
	if sr.trailer == "" {
		t.Fatalf("stream has no stats trailer (error line: %s)", sr.errLine)
	}
	var tr struct {
		Stats struct {
			Cluster map[string]any `json:"cluster"`
		} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(sr.trailer), &tr); err != nil {
		t.Fatalf("bad trailer %q: %v", sr.trailer, err)
	}
	return tr.Stats.Cluster
}

// differentialQueries is the pinned suite: every shape the scatter plan
// distinguishes, each required byte-identical to the single node.
var differentialQueries = []string{
	"select a1, a2 from t",
	"select * from t where a1 > 700",
	"select a1 from t where a1 between 100 and 300",
	"select a1, a2 from t limit 13",
	"select a1, a2 from t order by a2, a1 limit 37",
	"select a1 from t order by a1 desc limit 10",
	"select a2, a1 from t where a2 = 3 order by a2 desc, a1",
	"select count(*) from t",
	"select count(*), sum(a1), min(a1), max(a1), avg(a1) from t",
	"select count(*), sum(a1), min(a1), max(a1) from t where a1 < 0",
	"select sum(a1), avg(a3) from t where a2 <> 2",
	"select a2, sum(a1), count(*), avg(a1) from t group by a2",
	"select a2, sum(a1) from t group by a2 order by a2",
	"select a2, count(*) from t group by a2 order by a2 desc limit 3",
	"select sum(a1), count(*) from t group by a2",
}

// TestDifferentialByteIdentity pins the core acceptance property: a
// 3-shard coordinator's stream (header + rows) is byte-identical to a
// single node scanning the concatenated file, across plain selects,
// filters, limits, ORDER BY with cross-shard ties, global aggregates
// (including empty input) and group-bys.
func TestDifferentialByteIdentity(t *testing.T) {
	shards, single := buildCluster(t, testRows, 3)
	coord := startCoordinator(t, cluster.CoordinatorConfig{Shards: shards})

	for _, q := range differentialQueries {
		want := stream(t, single.URL, q)
		got := stream(t, coord.URL, q)
		if got.header != want.header {
			t.Errorf("%q: header differs:\n  coord:  %s\n  single: %s", q, got.header, want.header)
			continue
		}
		if len(got.rows) != len(want.rows) {
			t.Errorf("%q: %d rows from coordinator, %d from single node", q, len(got.rows), len(want.rows))
			continue
		}
		for i := range got.rows {
			if got.rows[i] != want.rows[i] {
				t.Errorf("%q: row %d differs:\n  coord:  %s\n  single: %s", q, i, got.rows[i], want.rows[i])
				break
			}
		}
		if got.trailer == "" {
			t.Errorf("%q: coordinator stream missing stats trailer", q)
		}
	}
}

// TestDifferentialBufferedQuery pins /query (the buffered endpoint)
// against the single node for a representative subset.
func TestDifferentialBufferedQuery(t *testing.T) {
	shards, single := buildCluster(t, testRows, 3)
	coord := startCoordinator(t, cluster.CoordinatorConfig{Shards: shards})

	type queryOut struct {
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}
	post := func(base, q string) queryOut {
		body, _ := json.Marshal(map[string]string{"query": q})
		resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("query %q: http %d: %s", q, resp.StatusCode, b)
		}
		var out queryOut
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, q := range []string{
		"select count(*), sum(a1), avg(a1) from t where a1 >= 600",
		"select a2, sum(a1) from t group by a2 order by a2",
		"select a1 from t order by a1 limit 5",
	} {
		want := post(single.URL, q)
		got := post(coord.URL, q)
		wantJSON, _ := json.Marshal(want)
		gotJSON, _ := json.Marshal(got)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("%q:\n  coord:  %s\n  single: %s", q, gotJSON, wantJSON)
		}
	}
}

// TestSynopsisPruningSkipsShards warms the shards' scan synopses, then
// runs a query whose predicate lands entirely inside one shard's a3
// range: the coordinator must prune at least one shard and still return
// exactly the single node's answer.
func TestSynopsisPruningSkipsShards(t *testing.T) {
	shards, single := buildCluster(t, testRows, 3)
	coord := startCoordinator(t, cluster.CoordinatorConfig{Shards: shards})

	// Warm: a full scan over a3 teaches every shard its portion layout
	// and zone maps, which /cluster/synopsis then exports.
	_ = stream(t, coord.URL, "select sum(a3) from t")

	// a3 is sequential 0..N-1, so shard 1 holds [0, N/3): this predicate
	// is provably empty on shards 2 and 3.
	q := "select a1, a3 from t where a3 between 10 and 50"
	want := stream(t, single.URL, q)
	got := stream(t, coord.URL, q)
	if got.header != want.header || len(got.rows) != len(want.rows) {
		t.Fatalf("pruned query differs: %d rows vs %d", len(got.rows), len(want.rows))
	}
	for i := range got.rows {
		if got.rows[i] != want.rows[i] {
			t.Fatalf("pruned query row %d differs:\n  coord:  %s\n  single: %s", i, got.rows[i], want.rows[i])
		}
	}
	cl := clusterTrailer(t, got)
	if pruned, _ := cl["shards_pruned"].(float64); pruned < 1 {
		t.Fatalf("expected at least one pruned shard, got cluster stats %v", cl)
	}
	if partial, _ := cl["partial_results"].(bool); partial {
		t.Fatalf("pruning must not be reported as partial results: %v", cl)
	}

	// An aggregate over a pruned range must also match (the kept shard's
	// sentinel row carries the whole answer).
	qa := "select count(*), sum(a1) from t where a3 between 10 and 50"
	wantA := stream(t, single.URL, qa)
	gotA := stream(t, coord.URL, qa)
	if len(gotA.rows) != 1 || gotA.rows[0] != wantA.rows[0] {
		t.Fatalf("pruned aggregate differs: %v vs %v", gotA.rows, wantA.rows)
	}
}

// fakeShard is a scriptable shard: it serves /readyz and /v1/cluster/synopsis
// like a real node, and streams canned rows on /v1/query/stream with
// programmable failures — fail the first N opens with 500, or truncate
// the stream (no trailer) after K rows for the first M attempts.
type fakeShard struct {
	columns   []string
	rows      [][]any
	failOpens atomic.Int32 // remaining opens to fail with 500
	truncAt   int          // rows before truncating; 0 = never
	truncFor  atomic.Int32 // remaining attempts that truncate

	attempts atomic.Int32
	lastKey  atomic.Value // last X-API-Key seen on /query/stream
}

func (f *fakeShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/readyz", "/healthz":
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	case "/v1/cluster/synopsis":
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"tables":{}}`)
	case "/v1/query/stream":
		f.attempts.Add(1)
		f.lastKey.Store(r.Header.Get("X-API-Key"))
		if f.failOpens.Add(-1) >= 0 {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintln(w, `{"error":"injected open failure"}`)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		_ = enc.Encode(map[string][]string{"columns": f.columns})
		truncate := f.truncAt > 0 && f.truncFor.Add(-1) >= 0
		for i, row := range f.rows {
			if truncate && i == f.truncAt {
				// Die mid-stream: no trailer, connection just ends.
				return
			}
			_ = enc.Encode(row)
		}
		_ = enc.Encode(map[string]any{"stats": map[string]any{}})
	default:
		http.NotFound(w, r)
	}
}

func fakeRows(vals ...int64) [][]any {
	out := make([][]any, len(vals))
	for i, v := range vals {
		out[i] = []any{v}
	}
	return out
}

// TestShardKillMidStreamPartialResults kills one shard mid-stream (it
// truncates on every attempt, exhausting the retry budget) and requires
// the coordinator to complete with partial_results and the failed shard
// named in the trailer — not an error, and not a silent truncation.
func TestShardKillMidStreamPartialResults(t *testing.T) {
	healthy := httptest.NewServer(&fakeShard{columns: []string{"a1"}, rows: fakeRows(1, 2, 3)})
	t.Cleanup(healthy.Close)
	dying := &fakeShard{columns: []string{"a1"}, rows: fakeRows(10, 20, 30), truncAt: 1}
	dying.truncFor.Store(100) // truncate every attempt
	dyingSrv := httptest.NewServer(dying)
	t.Cleanup(dyingSrv.Close)

	coord := startCoordinator(t, cluster.CoordinatorConfig{
		Shards:       []string{healthy.URL, dyingSrv.URL},
		AllowPartial: true,
		Retries:      -1, // single attempt: the kill is terminal
	})
	got := stream(t, coord.URL, "select a1 from t")
	// The healthy shard's rows must all be present; the dying shard may
	// contribute the prefix it delivered before the kill, but its loss is
	// flagged below — never silent.
	want := []string{"[1]", "[2]", "[3]"}
	if len(got.rows) < 3 {
		t.Fatalf("expected at least the healthy shard's 3 rows, got %v", got.rows)
	}
	for i, w := range want {
		if got.rows[i] != w {
			t.Fatalf("row %d = %s, want %s (healthy shard rows must survive)", i, got.rows[i], w)
		}
	}
	cl := clusterTrailer(t, got)
	if partial, _ := cl["partial_results"].(bool); !partial {
		t.Fatalf("expected partial_results=true, got %v", cl)
	}
	failed, _ := cl["failed_shards"].([]any)
	if len(failed) != 1 || failed[0] != dyingSrv.URL {
		t.Fatalf("expected failed_shards=[%s], got %v", dyingSrv.URL, cl)
	}
}

// TestShardKillWithoutPartialFails pins the strict mode: the same dead
// shard fails the whole query when partial results are disabled.
func TestShardKillWithoutPartialFails(t *testing.T) {
	healthy := httptest.NewServer(&fakeShard{columns: []string{"a1"}, rows: fakeRows(1)})
	t.Cleanup(healthy.Close)
	dying := &fakeShard{columns: []string{"a1"}, rows: fakeRows(10, 20), truncAt: 1}
	dying.truncFor.Store(100)
	dyingSrv := httptest.NewServer(dying)
	t.Cleanup(dyingSrv.Close)

	coord := startCoordinator(t, cluster.CoordinatorConfig{
		Shards:  []string{healthy.URL, dyingSrv.URL},
		Retries: -1,
	})
	got := stream(t, coord.URL, "select a1 from t")
	if got.errLine == "" {
		t.Fatalf("expected an in-band error, got rows=%v trailer=%s", got.rows, got.trailer)
	}
}

// TestRetryRecoversFlakyOpen pins the retry path: a shard that 500s its
// first open succeeds on the retry, the query completes clean (no
// partial), and the trailer records the retry.
func TestRetryRecoversFlakyOpen(t *testing.T) {
	flaky := &fakeShard{columns: []string{"a1"}, rows: fakeRows(1, 2)}
	flaky.failOpens.Store(1)
	flakySrv := httptest.NewServer(flaky)
	t.Cleanup(flakySrv.Close)

	coord := startCoordinator(t, cluster.CoordinatorConfig{Shards: []string{flakySrv.URL}})
	got := stream(t, coord.URL, "select a1 from t")
	if len(got.rows) != 2 {
		t.Fatalf("expected 2 rows after retry, got %v (err %s)", got.rows, got.errLine)
	}
	cl := clusterTrailer(t, got)
	if retries, _ := cl["shard_retries"].(float64); retries < 1 {
		t.Fatalf("expected shard_retries >= 1, got %v", cl)
	}
	if partial, _ := cl["partial_results"].(bool); partial {
		t.Fatalf("recovered retry must not be partial: %v", cl)
	}
}

// TestSkipAheadRetryDeliversExactlyOnce pins resumption: a shard that
// truncates its first attempt after 1 row must, after the retry re-opens
// and skips past the delivered prefix, yield each row exactly once.
func TestSkipAheadRetryDeliversExactlyOnce(t *testing.T) {
	sh := &fakeShard{columns: []string{"a1"}, rows: fakeRows(10, 20, 30), truncAt: 1}
	sh.truncFor.Store(1) // only the first attempt truncates
	srv := httptest.NewServer(sh)
	t.Cleanup(srv.Close)

	coord := startCoordinator(t, cluster.CoordinatorConfig{Shards: []string{srv.URL}})
	got := stream(t, coord.URL, "select a1 from t")
	want := []string{"[10]", "[20]", "[30]"}
	if len(got.rows) != len(want) {
		t.Fatalf("got %v, want %v", got.rows, want)
	}
	for i := range want {
		if got.rows[i] != want[i] {
			t.Fatalf("row %d = %s, want %s (skip-ahead must not duplicate or drop)", i, got.rows[i], want[i])
		}
	}
	if sh.attempts.Load() < 2 {
		t.Fatalf("expected a second attempt, saw %d", sh.attempts.Load())
	}
}

// TestAllShardsDeadFails requires a hard error — not an empty success —
// when every shard is unreachable, even in partial mode.
func TestAllShardsDeadFails(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from here on

	coord := startCoordinator(t, cluster.CoordinatorConfig{
		Shards:       []string{dead.URL},
		AllowPartial: true,
		Retries:      -1,
	})
	body, _ := json.Marshal(map[string]string{"query": "select a1 from t"})
	resp, err := http.Post(coord.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("expected an error status with all shards dead, got 200")
	}
}

// TestCoordinatorRejectsJoinsAndParams pins coordinator-side validation.
func TestCoordinatorRejectsJoinsAndParams(t *testing.T) {
	sh := httptest.NewServer(&fakeShard{columns: []string{"a1"}, rows: fakeRows(1)})
	t.Cleanup(sh.Close)
	coord := startCoordinator(t, cluster.CoordinatorConfig{Shards: []string{sh.URL}})
	for _, q := range []string{
		"select a.a1 from t a join u b on a.a1 = b.a1",
		"select a1 from t where a1 > ?",
		"select a1, count(*) from t",
	} {
		body, _ := json.Marshal(map[string]string{"query": q})
		resp, err := http.Post(coord.URL+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestReadyzGatesAdmission pins the readiness protocol: a shard that has
// not called MarkReady reports 503, and the coordinator's own /readyz
// reflects the degraded shard set.
func TestReadyzGatesAdmission(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := csvgen.WriteFile(path, testSpec(50)); err != nil {
		t.Fatal(err)
	}
	db := nodb.Open(nodb.Options{SplitDir: filepath.Join(dir, "splits")})
	t.Cleanup(func() { db.Close() })
	if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{DB: db})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	get := func(url string) int {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(ts.URL + "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before MarkReady = %d, want 503", code)
	}
	if code := get(ts.URL + "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz must be live before readiness, got %d", code)
	}

	coord := startCoordinator(t, cluster.CoordinatorConfig{Shards: []string{ts.URL}})
	if code := get(coord.URL + "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("coordinator /readyz with unready shard = %d, want 503", code)
	}

	srv.MarkReady()
	if code := get(ts.URL + "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after MarkReady = %d, want 200", code)
	}
	if code := get(coord.URL + "/readyz"); code != http.StatusOK {
		t.Fatalf("coordinator /readyz with ready shard = %d, want 200", code)
	}
}

// TestConcurrentScatter hammers the coordinator from many goroutines —
// mixed streaming and aggregate shapes plus a mid-stream client
// disconnect — primarily for the race detector.
func TestConcurrentScatter(t *testing.T) {
	shards, _ := buildCluster(t, 600, 3)
	coord := startCoordinator(t, cluster.CoordinatorConfig{Shards: shards, AllowPartial: true})

	queries := []string{
		"select a1, a2 from t",
		"select a1 from t order by a1 limit 20",
		"select count(*), sum(a1) from t",
		"select a2, count(*) from t group by a2",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				q := queries[(g+i)%len(queries)]
				sr := stream(t, coord.URL, q)
				if sr.errLine != "" {
					t.Errorf("%q: %s", q, sr.errLine)
				}
			}
		}(g)
	}
	// Client disconnects mid-stream: the coordinator must cancel
	// upstream without disturbing the concurrent queries.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			body, _ := json.Marshal(map[string]string{"query": "select a1, a2 from t"})
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
				coord.URL+"/v1/query/stream", bytes.NewReader(body))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				cancel()
				continue
			}
			buf := make([]byte, 256)
			_, _ = resp.Body.Read(buf)
			cancel()
			resp.Body.Close()
		}
	}()
	wg.Wait()
}

// TestMergeSortLimitCancelsUpstream pins upstream cancellation end to
// end: an ORDER BY + small LIMIT over large shards must finish promptly,
// well before the shards could stream all their rows.
func TestMergeSortLimitCancelsUpstream(t *testing.T) {
	shards, single := buildCluster(t, 3000, 3)
	coord := startCoordinator(t, cluster.CoordinatorConfig{Shards: shards})
	q := "select a1 from t order by a1 limit 3"
	want := stream(t, single.URL, q)
	got := stream(t, coord.URL, q)
	if len(got.rows) != 3 {
		t.Fatalf("got %v", got.rows)
	}
	for i := range got.rows {
		if got.rows[i] != want.rows[i] {
			t.Fatalf("row %d: %s vs %s", i, got.rows[i], want.rows[i])
		}
	}
}

// TestCoordinatorTenantAuth pins the coordinator's tenant surface: with a
// reject-unknown registry a keyless or wrong-key request gets the 401
// envelope on every query-shaped endpoint, a keyed request succeeds with
// the caller's key forwarded to the shards, and /stats exposes per-tenant
// admission accounting that advances as the tenant is served.
func TestCoordinatorTenantAuth(t *testing.T) {
	sh := &fakeShard{columns: []string{"a1"}, rows: fakeRows(1, 2, 3)}
	shSrv := httptest.NewServer(sh)
	t.Cleanup(shSrv.Close)

	reg, err := qos.NewRegistry([]qos.Tenant{
		{Name: "analytics", Key: "secret", Weight: 3},
		{Name: "reporting", Key: "rkey", Weight: 1},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	coord := startCoordinator(t, cluster.CoordinatorConfig{
		Shards:  []string{shSrv.URL},
		Tenants: reg,
	})

	post := func(path, key string) *http.Response {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"query": "select a1 from t"})
		req, _ := http.NewRequest(http.MethodPost, coord.URL+path, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	for _, path := range []string{"/v1/query", "/v1/query/stream", "/v1/explain"} {
		for _, key := range []string{"", "wrong"} {
			resp := post(path, key)
			if resp.StatusCode != http.StatusUnauthorized {
				t.Fatalf("%s with key %q: status %d, want 401", path, key, resp.StatusCode)
			}
			var env struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("%s: decoding 401 body: %v", path, err)
			}
			resp.Body.Close()
			if env.Error.Code != "unknown_api_key" {
				t.Fatalf("%s: error code %q, want unknown_api_key", path, env.Error.Code)
			}
		}
	}

	resp := post("/query", "secret")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unversioned /query: status %d, want 404", resp.StatusCode)
	}
	resp = post("/v1/query", "secret")
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("keyed query: status %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Rows [][]int64 `json:"rows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(out.Rows) != 3 {
		t.Fatalf("keyed query rows = %v, want 3", out.Rows)
	}
	if got, _ := sh.lastKey.Load().(string); got != "secret" {
		t.Fatalf("shard saw X-API-Key %q, want the caller's key forwarded", got)
	}

	sresp := post("/v1/stats", "")
	var stats struct {
		Tenants map[string]struct {
			Weight float64 `json:"weight"`
			Slots  int     `json:"slots"`
			Served int64   `json:"served"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	an, ok := stats.Tenants["analytics"]
	if !ok {
		t.Fatalf("stats missing analytics tenant: %+v", stats.Tenants)
	}
	if an.Weight != 3 || an.Slots < 1 || an.Served != 1 {
		t.Fatalf("analytics tenant stats = %+v, want weight 3, slots >= 1, served 1", an)
	}
	if _, ok := stats.Tenants["reporting"]; !ok {
		t.Fatalf("stats missing reporting tenant: %+v", stats.Tenants)
	}
}

// hangShard answers health and synopsis probes instantly but never
// responds to a query until the request is cancelled — the worst-case
// dead shard: reachable, just infinitely slow.
type hangShard struct {
	queries atomic.Int32
}

func (h *hangShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/readyz", "/healthz":
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	case "/v1/cluster/synopsis":
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"tables":{}}`)
	case "/v1/query/stream":
		h.queries.Add(1)
		// Drain the body so the server arms close-detection and cancels
		// the request context when the coordinator gives up.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	default:
		http.NotFound(w, r)
	}
}

// TestCircuitBreakerSkipsOpenShard pins the breaker's latency win: after
// a hung shard burns one query's ShardTimeout and opens its breaker, the
// next query must skip that shard instantly — completing in a fraction
// of the timeout it would otherwise burn again — while still reporting
// the shard failed in the partial-results trailer, and without a second
// dial ever reaching the shard.
func TestCircuitBreakerSkipsOpenShard(t *testing.T) {
	healthy := httptest.NewServer(&fakeShard{columns: []string{"a1"}, rows: fakeRows(1, 2, 3)})
	t.Cleanup(healthy.Close)
	hung := &hangShard{}
	hungSrv := httptest.NewServer(hung)
	t.Cleanup(hungSrv.Close)

	const shardTimeout = 800 * time.Millisecond
	coord := startCoordinator(t, cluster.CoordinatorConfig{
		Shards:           []string{healthy.URL, hungSrv.URL},
		AllowPartial:     true,
		Retries:          -1, // single attempt per query
		ShardTimeout:     shardTimeout,
		BreakerThreshold: 1,
		BreakerBackoff:   time.Minute, // stays open for the whole test
	})

	check := func(stage string, sr streamResult) {
		t.Helper()
		want := []string{"[1]", "[2]", "[3]"}
		if len(sr.rows) != len(want) {
			t.Fatalf("%s: rows = %v, want %v", stage, sr.rows, want)
		}
		for i := range want {
			if sr.rows[i] != want[i] {
				t.Fatalf("%s: row %d = %s, want %s", stage, i, sr.rows[i], want[i])
			}
		}
		cl := clusterTrailer(t, sr)
		if partial, _ := cl["partial_results"].(bool); !partial {
			t.Fatalf("%s: expected partial_results=true, got %v", stage, cl)
		}
		failed, _ := cl["failed_shards"].([]any)
		if len(failed) != 1 || failed[0] != hungSrv.URL {
			t.Fatalf("%s: expected failed_shards=[%s], got %v", stage, hungSrv.URL, cl)
		}
	}

	start := time.Now()
	first := stream(t, coord.URL, "select a1 from t")
	if d := time.Since(start); d < shardTimeout {
		t.Fatalf("first query finished in %v; expected it to burn the %v shard timeout", d, shardTimeout)
	}
	check("first", first)

	start = time.Now()
	second := stream(t, coord.URL, "select a1 from t")
	if d := time.Since(start); d >= shardTimeout/2 {
		t.Fatalf("second query took %v; an open breaker must skip the shard without consuming its %v timeout", d, shardTimeout)
	}
	check("second", second)

	if n := hung.queries.Load(); n != 1 {
		t.Fatalf("hung shard saw %d query attempts, want 1 (the breaker must prevent the second dial)", n)
	}
}
