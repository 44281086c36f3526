package nodb_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"nodb"
	"nodb/internal/server"
	"nodb/internal/vfs"
)

// TestServerHealthzDegraded runs the whole degraded-mode story through
// the HTTP layer: a disk-full snapshot tier flips /healthz to
// "degraded" and sets snapshot.degraded in /v1/stats, queries keep
// answering, and a later successful save heals both.
func TestServerHealthzDegraded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	var sb strings.Builder
	sb.WriteString("a1,a2\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "%d,%d\n", i, i*2)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	ffs := vfs.NewFaultFS(nil)
	db := nodb.OpenFSForTest(nodb.Options{Policy: nodb.ColumnLoads, CacheDir: filepath.Join(dir, "cache")}, ffs)
	defer db.Close()
	if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}

	s := server.New(server.Config{DB: db})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	healthz := func() map[string]string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status = %d; liveness must stay 200 even degraded", resp.StatusCode)
		}
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body
	}

	if got := healthz(); got["status"] != "ok" {
		t.Fatalf("healthy healthz = %v, want status ok", got)
	}

	// Learn something so a snapshot has state to persist.
	if _, err := db.Query("select sum(a1) from t"); err != nil {
		t.Fatal(err)
	}

	// The disk fills up under the cache dir; the next snapshot save fails
	// and the store degrades to memory-only.
	ffs.AddRule(vfs.Rule{Op: vfs.OpWrite, Err: syscall.ENOSPC, PathContains: "cache", Times: -1})
	ffs.AddRule(vfs.Rule{Op: vfs.OpCreate, Err: syscall.ENOSPC, PathContains: "cache", Times: -1})
	if err := db.Snapshot(); err == nil {
		t.Fatal("snapshot on a full disk must fail")
	}

	if got := healthz(); got["status"] != "degraded" || got["reason"] == "" {
		t.Fatalf("degraded healthz = %v, want status degraded with a reason", got)
	}

	// Queries still answer through the HTTP path while degraded.
	body := strings.NewReader(`{"query": "select count(*) from t"}`)
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query while degraded = %d, want 200", resp.StatusCode)
	}

	// The flag is also visible in /v1/stats for scrapers.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Snapshot nodb.SnapStats `json:"snapshot"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Snapshot.Degraded {
		t.Fatal("/v1/stats must report snapshot.degraded while memory-only")
	}

	// Space returns: the next save succeeds and liveness self-heals.
	ffs.Clear()
	if err := db.Snapshot(); err != nil {
		t.Fatalf("snapshot after recovery failed: %v", err)
	}
	if got := healthz(); got["status"] != "ok" {
		t.Fatalf("healed healthz = %v, want status ok", got)
	}
}
