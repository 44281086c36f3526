package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"nodb"
	"nodb/internal/csvgen"
	"nodb/internal/exec"
	"nodb/internal/ndjson"
)

// queryResponse is a /query body as a client decodes it.
type queryResponse struct {
	Columns []string       `json:"columns"`
	Rows    [][]any        `json:"rows"`
	Stats   queryStatsJSON `json:"stats"`
}

// TestQueryNaNResult: avg over zero rows is NaN, which JSON cannot
// represent. The buffered endpoint answers with the error envelope (not a
// 200 with an empty body) and counts the query as failed; the stream
// endpoint, whose headers are already out, reports it as its trailer.
func TestQueryNaNResult(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const q = "select avg(a1) from events where a1 < 0"

	body, _ := json.Marshal(queryRequest{Query: q})
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var env errorEnvelope
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding the error body: %v", err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity || env.Error.Code != "unsupported_value" ||
		env.Error.Message != "json: unsupported value: NaN" {
		t.Fatalf("/v1/query NaN result: %d %+v, want 422 unsupported_value", resp.StatusCode, env)
	}
	if got := s.failed.Load(); got != 1 {
		t.Fatalf("failed = %d after the NaN query, want 1", got)
	}

	resp, err = http.Post(ts.URL+"/v1/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	want := []string{`{"columns":["avg(a1)"]}`, `{"error":"json: unsupported value: NaN"}`}
	if resp.StatusCode != http.StatusOK || strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("/v1/query/stream NaN result: %d %q, want 200 %q", resp.StatusCode, lines, want)
	}
	if got := s.failed.Load(); got != 2 {
		t.Fatalf("failed = %d after the NaN stream, want 2", got)
	}
}

// TestQueryStreamAllocsPerRow pins the stream path's allocation budget:
// rows are encoded from their typed values into one reused buffer, so a
// large result costs a bounded number of allocations per cursor batch,
// not several per row.
func TestQueryStreamAllocsPerRow(t *testing.T) {
	const rows = 12000
	path := filepath.Join(t.TempDir(), "wide.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: rows, Cols: 4, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	db := nodb.Open(nodb.Options{Policy: nodb.ColumnLoads})
	t.Cleanup(func() { db.Close() })
	if err := db.Attach("wide", nodb.TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{DB: db})
	body, _ := json.Marshal(queryRequest{Query: "select a3, a1, a4 from wide where a2 >= 0"})
	var lines int
	run := func() {
		rec := httptest.NewRecorder()
		s.handleQueryStream(rec, httptest.NewRequest(http.MethodPost, "/v1/query/stream", bytes.NewReader(body)))
		lines = bytes.Count(rec.Body.Bytes(), []byte("\n"))
	}
	run() // load the columns
	if lines != rows+2 {
		t.Fatalf("stream has %d lines, want %d rows plus header and trailer", lines, rows)
	}
	perRow := testing.AllocsPerRun(5, run) / rows
	t.Logf("%.4f allocs per row", perRow)
	if perRow > 0.1 {
		t.Fatalf("stream allocates %.3f times per row, want <= 0.1", perRow)
	}
}

// countingWriter is a ResponseWriter that keeps every Write separately.
type countingWriter struct {
	header http.Header
	mu     sync.Mutex
	writes [][]byte
}

func (w *countingWriter) Header() http.Header { return w.header }
func (w *countingWriter) WriteHeader(int)     {}
func (w *countingWriter) Flush()              {}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes = append(w.writes, append([]byte(nil), b...))
	return len(b), nil
}

// TestQueryStreamWritePolicy pins the stream's write policy: after the
// header, the first batch goes out at once, on its own; after that the
// stream writes 64 KiB at a time, so a large result costs about one
// Write per 64 KiB, plus the header, the first rows and the trailer (and
// one per ticker firing, should the stream outlast FlushInterval).
func TestQueryStreamWritePolicy(t *testing.T) {
	const rows = 12000
	path := filepath.Join(t.TempDir(), "wide.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: rows, Cols: 4, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	db := nodb.Open(nodb.Options{Policy: nodb.ColumnLoads})
	t.Cleanup(func() { db.Close() })
	if err := db.Attach("wide", nodb.TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{DB: db})
	body, _ := json.Marshal(queryRequest{Query: "select a3, a1, a4, a2 from wide where a2 >= 0"})
	run := func() (*countingWriter, time.Duration) {
		w := &countingWriter{header: http.Header{}}
		start := time.Now()
		s.handleQueryStream(w, httptest.NewRequest(http.MethodPost, "/v1/query/stream", bytes.NewReader(body)))
		return w, time.Since(start)
	}
	run() // load the columns
	w, took := run()

	var all []byte
	for _, b := range w.writes {
		all = append(all, b...)
	}
	if lines := bytes.Count(all, []byte("\n")); lines != rows+2 {
		t.Fatalf("stream has %d lines, want %d rows plus header and trailer", lines, rows)
	}
	if len(w.writes) < 3 || !bytes.HasPrefix(w.writes[0], []byte(`{"columns"`)) {
		t.Fatalf("%d writes; want the header written on its own first", len(w.writes))
	}
	// The cursor hands the pipeline's batches over whole: the first rows
	// written are exactly the first batch, so they left before the cursor
	// was asked for the second.
	if got := bytes.Count(w.writes[1], []byte("\n")); got != exec.DefaultBatchSize || w.writes[1][0] != '[' {
		t.Fatalf("the first write after the header holds %d lines, want the first batch of %d rows alone", got, exec.DefaultBatchSize)
	}
	const chunk = 64 << 10
	allowed := (len(all)+chunk-1)/chunk + 3 + int(took/ndjson.FlushInterval)
	t.Logf("%d bytes in %d writes (%v)", len(all), len(w.writes), took)
	if len(w.writes) > allowed {
		t.Fatalf("%d bytes took %d writes, want <= %d", len(all), len(w.writes), allowed)
	}
}
