package nodb_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nodb"
	"nodb/internal/csvgen"
	"nodb/internal/ndjson"
	"nodb/internal/server"
	"nodb/internal/vfs"
)

// TestServerStreamTrickleFirstRow: a selective scan over a slow disk finds
// its one row in the first chunk and then keeps reading for a long time.
// The stream is written a cursor batch at a time, not a row at a time, yet
// that row must still reach the client within ndjson.FlushInterval instead
// of waiting for the pass to end.
func TestServerStreamTrickleFirstRow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 20000, Cols: 4, Seed: 23}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(string(raw), ",")

	ffs := vfs.NewFaultFS(nil)
	// The streaming scan hands a partial batch over when its portion (one
	// 4 KiB chunk here) ends, instead of holding it for a whole batch.
	db := nodb.OpenFSForTest(nodb.Options{Policy: nodb.PartialLoadsV1, ChunkSize: 4096, Workers: 1}, ffs)
	defer db.Close()
	if err := db.Attach("big", nodb.TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	// Learn the portion layout first, so the streamed pass below is a
	// steady-state scan with no row-count pre-pass ahead of it.
	if _, err := db.Query("select count(*) from big"); err != nil {
		t.Fatal(err)
	}
	ffs.AddRule(vfs.Rule{Op: vfs.OpRead, PathContains: "big.csv", Delay: 5 * time.Millisecond})
	ts := httptest.NewServer(server.New(server.Config{DB: db}))
	defer ts.Close()

	body, _ := json.Marshal(map[string]string{"query": fmt.Sprintf("select a1 from big where a1 = %s", first)})
	resp, err := http.Post(ts.URL+"/v1/query/stream", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	row, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	firstRow := time.Since(start)
	if row != "["+first+"]\n" {
		t.Fatalf("first line after the header = %q, want the matching row", row)
	}
	trailer, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(trailer, `{"stats"`) {
		t.Fatalf("trailer = %q (%v)", trailer, err)
	}
	total := time.Since(start)
	t.Logf("first row after %v; the pass took %v", firstRow, total)
	if total < 4*ndjson.FlushInterval {
		t.Fatalf("the pass took %v; the slow disk should stretch it well past %v", total, 4*ndjson.FlushInterval)
	}
	if firstRow > ndjson.FlushInterval {
		t.Fatalf("first row arrived %v after the header (pass took %v), want <= %v", firstRow, total, ndjson.FlushInterval)
	}
}
