package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nodb"
	"nodb/internal/csvgen"
)

// TestSnapshotFlusherAndStats: with a cache dir and a short flush
// interval, the server periodically persists the DB's auxiliary
// structures and /stats surfaces the snapshot cache's activity.
func TestSnapshotFlusherAndStats(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	path := filepath.Join(dir, "events.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 500, Cols: 4, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	db := nodb.Open(nodb.Options{Policy: nodb.ColumnLoads, CacheDir: cache})
	t.Cleanup(func() { db.Close() })
	if err := db.Attach("events", nodb.TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{DB: db, SnapshotInterval: 20 * time.Millisecond})
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	if resp, _ := postQuery(t, ts.URL, "select sum(a1) from events"); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}

	// The flusher must write snapshot files without any shutdown.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if entries, err := os.ReadDir(cache); err == nil && len(entries) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic flusher never wrote a snapshot")
		}
		time.Sleep(10 * time.Millisecond)
	}

	var stats statsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if !stats.Snapshot.Enabled {
		t.Fatalf("stats.snapshot.enabled = false: %+v", stats.Snapshot)
	}
	if stats.Snapshot.Saves == 0 {
		t.Errorf("stats.snapshot.saves = 0 after flush: %+v", stats.Snapshot)
	}
	if stats.Snapshot.Dir != cache {
		t.Errorf("stats.snapshot.dir = %q, want %q", stats.Snapshot.Dir, cache)
	}

	// Close stops the flusher (idempotent) and performs a final flush.
	if err := s.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	var after statsResponse
	getJSON(t, ts.URL+"/v1/stats", &after)
	if after.Server.SnapshotSaves == 0 && stats.Server.SnapshotSaves == 0 {
		t.Errorf("server flush counter never moved: %+v", after.Server)
	}
}

// TestStatsSnapshotDisabled: without a cache dir the snapshot object
// reports disabled and the flusher never starts.
func TestStatsSnapshotDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{SnapshotInterval: 10 * time.Millisecond})
	var stats statsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Snapshot.Enabled {
		t.Errorf("snapshot reported enabled without a cache dir: %+v", stats.Snapshot)
	}
}
