package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"nodb"
	"nodb/internal/csvgen"
)

const testRows = 4000

// newTestServer stands up a DB over one generated table ("events",
// columns a1..a4 holding permutations of 0..rows-1) and a Server on it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "events.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: testRows, Cols: 4, Seed: 19}); err != nil {
		t.Fatal(err)
	}
	db := nodb.Open(nodb.Options{Policy: nodb.PartialLoadsV2, SplitDir: filepath.Join(dir, "splits")})
	t.Cleanup(func() { db.Close() })
	if err := db.Attach("events", nodb.TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	cfg.DB = db
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postQuery(t *testing.T, url, query string) (*http.Response, queryResponse) {
	t.Helper()
	body, _ := json.Marshal(queryRequest{Query: query})
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out queryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, out
}

func TestServerQueryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	wantSum := float64(testRows) * float64(testRows-1) / 2
	resp, out := postQuery(t, ts.URL, "select sum(a1), count(*) from events where a1 >= 0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if len(out.Columns) != 2 || len(out.Rows) != 1 {
		t.Fatalf("got %d columns, %d rows", len(out.Columns), len(out.Rows))
	}
	if got := out.Rows[0][0].(float64); got != wantSum {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
	if got := out.Rows[0][1].(float64); got != testRows {
		t.Fatalf("count = %v, want %d", got, testRows)
	}
	if out.Stats.Plan == "" {
		t.Error("response missing plan")
	}

	// GET form.
	resp2, err := http.Get(ts.URL + "/v1/query?q=" + "select+count(*)+from+events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /query status = %d, want 200", resp2.StatusCode)
	}
}

func TestServerMetadataEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var tables map[string][]tableInfoJSON
	getJSON(t, ts.URL+"/v1/tables", &tables)
	if len(tables["tables"]) != 1 || tables["tables"][0].Name != "events" {
		t.Fatalf("tables = %v", tables)
	}
	if tables["tables"][0].Signature.Size <= 0 {
		t.Fatalf("tables entry missing signature: %+v", tables["tables"][0])
	}

	var sch schemaJSON
	getJSON(t, ts.URL+"/v1/schema?table=events", &sch)
	if len(sch.Columns) != 4 {
		t.Fatalf("schema columns = %v", sch.Columns)
	}
	if sch.Columns[0].Name != "a1" || sch.Columns[0].Type != "int64" {
		t.Fatalf("first column = %+v", sch.Columns[0])
	}

	var expl map[string]string
	getJSON(t, ts.URL+"/v1/explain?q=select+sum(a1)+from+events", &expl)
	if expl["plan"] == "" {
		t.Fatal("empty plan")
	}

	var stats statsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Server.MaxInFlight != 64 {
		t.Fatalf("max_in_flight = %d, want default 64", stats.Server.MaxInFlight)
	}
	if stats.Policy != "partial-v2" {
		t.Fatalf("policy = %q", stats.Policy)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s status = %d: %s", url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestServerBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"missing query", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte(`{}`)))
		}, http.StatusBadRequest},
		{"bad json", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte(`{`)))
		}, http.StatusBadRequest},
		{"bad sql", func() (*http.Response, error) {
			return http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader([]byte(`{"query":"select from nothing"}`)))
		}, http.StatusBadRequest},
		{"unknown table schema", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/schema?table=nope")
		}, http.StatusNotFound},
		{"bad method", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/query", nil)
			return http.DefaultClient.Do(req)
		}, http.StatusMethodNotAllowed},
		{"unversioned query", func() (*http.Response, error) {
			return http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte(`{"query":"select count(*) from events"}`)))
		}, http.StatusNotFound},
		{"unversioned stats", func() (*http.Response, error) {
			return http.Get(ts.URL + "/stats")
		}, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := tc.do()
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// TestServerBodyTooLarge: a POST body over the configured cap gets 413,
// not a generic 400.
func TestServerBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	body, _ := json.Marshal(queryRequest{Query: "select count(*) from events where a1 > 0 and a1 < 99999999"})
	if len(body) <= 64 {
		t.Fatalf("test body only %d bytes", len(body))
	}
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

// TestServerAdmissionControl holds the only execution slot and verifies
// the next query is turned away with 429, then succeeds once released.
func TestServerAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1})

	s.sem <- struct{}{} // occupy the single slot
	resp, _ := postQuery(t, ts.URL, "select count(*) from events")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}
	<-s.sem // release

	resp2, _ := postQuery(t, ts.URL, "select count(*) from events")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status after release = %d, want 200", resp2.StatusCode)
	}
	if got := s.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

// TestServerTimeout: an already-expired server-side timeout surfaces as
// 504 and counts as a cancelled query.
func TestServerTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{DefaultTimeout: time.Nanosecond})
	resp, _ := postQuery(t, ts.URL, "select count(*) from events")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if got := s.cancelled.Load(); got != 1 {
		t.Fatalf("cancelled counter = %d, want 1", got)
	}
}

// TestServerConcurrentClients hammers one shared engine from many client
// goroutines mixing queries and metadata requests; run under -race this is
// the headline "concurrent query server with no data races" check.
func TestServerConcurrentClients(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 32})

	wantSum := float64(testRows) * float64(testRows-1) / 2
	queries := []string{
		"select sum(a1), count(*) from events where a1 >= 0",
		"select sum(a2) from events where a2 >= 0",
		"select min(a3), max(a3) from events",
		"select count(*) from events where a1 < 100",
	}

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				switch i % 4 {
				case 0:
					resp, out := postQueryE(ts.URL, queries[0])
					if resp == nil || resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("client %d: query failed: %v", cl, resp)
						return
					}
					if got := out.Rows[0][0].(float64); got != wantSum {
						errs <- fmt.Errorf("client %d: sum = %v, want %v", cl, got, wantSum)
						return
					}
				case 1:
					resp, _ := postQueryE(ts.URL, queries[(cl+i)%len(queries)])
					if resp == nil || resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("client %d: query failed: %v", cl, resp)
						return
					}
				case 2:
					resp, err := http.Get(ts.URL + "/v1/stats")
					if err != nil || resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("client %d: stats failed: %v", cl, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				case 3:
					resp, err := http.Get(ts.URL + "/v1/tables")
					if err != nil || resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("client %d: tables failed: %v", cl, err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := s.inFlight.Load(); got != 0 {
		t.Fatalf("in-flight gauge = %d after drain, want 0", got)
	}
	if s.served.Load() == 0 {
		t.Fatal("served counter never advanced")
	}
}

// postQueryE is postQuery without the testing.T, for use inside client
// goroutines (t.Fatal must not be called off the test goroutine).
func postQueryE(url, query string) (*http.Response, queryResponse) {
	body, _ := json.Marshal(queryRequest{Query: query})
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, queryResponse{}
	}
	defer resp.Body.Close()
	var out queryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, queryResponse{}
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, out
}

// TestServerQueryStream: the NDJSON endpoint emits a columns header, one
// JSON array per row, and a stats trailer.
func TestServerQueryStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	body, _ := json.Marshal(queryRequest{Query: "select a1 from events where a1 < 10 order by a1"})
	resp, err := http.Post(ts.URL+"/v1/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("missing header line")
	}
	var header struct {
		Columns []string `json:"columns"`
	}
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
		t.Fatal(err)
	}
	if len(header.Columns) != 1 || header.Columns[0] != "a1" {
		t.Fatalf("columns = %v", header.Columns)
	}

	var got []float64
	var sawStats bool
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(bytes.TrimSpace(line), []byte("[")) {
			var row []float64
			if err := json.Unmarshal(line, &row); err != nil {
				t.Fatal(err)
			}
			got = append(got, row[0])
			continue
		}
		var trailer struct {
			Stats *queryStatsJSON `json:"stats"`
			Error string          `json:"error"`
		}
		if err := json.Unmarshal(line, &trailer); err != nil {
			t.Fatal(err)
		}
		if trailer.Error != "" {
			t.Fatalf("stream error: %s", trailer.Error)
		}
		if trailer.Stats == nil || trailer.Stats.Plan == "" {
			t.Fatalf("trailer missing stats: %s", line)
		}
		sawStats = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawStats {
		t.Fatal("stream ended without a stats trailer")
	}
	if len(got) != 10 {
		t.Fatalf("got %d rows, want 10", len(got))
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("row %d = %v", i, v)
		}
	}
}

// TestServerQueryStreamErrors: parse errors arrive as a plain error
// response before anything streams.
func TestServerQueryStreamErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(queryRequest{Query: "select bogus from nowhere"})
	resp, err := http.Post(ts.URL+"/v1/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestServerQueryStreamDisconnect: a client that walks away mid-stream
// stops the scan — the engine reads fewer raw bytes than the file holds.
func TestServerQueryStreamDisconnect(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "big.csv")
	// Big enough that the scan outlives disconnect propagation by a wide
	// margin; the assertion is only that the pass did not run to the end.
	const rows = 400000
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: rows, Cols: 4, Seed: 23}); err != nil {
		t.Fatal(err)
	}
	db := nodb.Open(nodb.Options{Policy: nodb.PartialLoadsV1, ChunkSize: 4096})
	t.Cleanup(func() { db.Close() })
	if err := db.Attach("big", nodb.TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{DB: db})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the portion layout (one full pass) so the streamed scan below
	// is a steady-state pass with no one-time row-count pre-pass, then
	// measure from here.
	if _, err := db.Query("select count(*) from big"); err != nil {
		t.Fatal(err)
	}
	base := db.Work().RawBytesRead

	body, _ := json.Marshal(queryRequest{Query: "select a1 from big where a1 >= 0"})
	resp, err := http.Post(ts.URL+"/v1/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	// Read the header line only, then hang up.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// The scan must stop well short of a full pass once the disconnect
	// propagates; poll briefly to let cancellation land.
	deadline := time.Now().Add(5 * time.Second)
	for {
		read := db.Work().RawBytesRead - base
		if srv.inFlight.Load() == 0 {
			if read >= st.Size() {
				t.Fatalf("disconnected stream read %d raw bytes of a %d byte file; want an early stop", read, st.Size())
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("query still in flight after disconnect (read %d bytes)", read)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStatsMemoryFields verifies /stats surfaces the memory governor's
// accounting: after a query loads adaptive state, used bytes are visible;
// the policy name and (unlimited) budget are reported.
func TestStatsMemoryFields(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp, _ := postQuery(t, ts.URL, "select sum(a1) from events where a1 >= 0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	var stats statsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Memory.Used <= 0 {
		t.Errorf("memory.used = %d, want > 0 after a retained load", stats.Memory.Used)
	}
	if stats.Memory.Budget != 0 {
		t.Errorf("memory.budget = %d, want 0 (unlimited)", stats.Memory.Budget)
	}
	if stats.Memory.Policy != "cost" {
		t.Errorf("memory.policy = %q, want cost", stats.Memory.Policy)
	}
	if stats.Memory.Entries <= 0 {
		t.Errorf("memory.entries = %d, want > 0", stats.Memory.Entries)
	}
}
