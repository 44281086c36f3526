package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func getStats(t *testing.T, url string) statsResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var out statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPanicRecovery drives a panicking handler through the wrap
// middleware: the client must get a clean 500 envelope carrying the
// request id, the panics counter must tick, and the process must keep
// serving (the next real query works).
func TestPanicRecovery(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	h := s.wrap(func(w http.ResponseWriter, r *http.Request) {
		panic("boom: handler bug")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/panic", nil))

	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	id := rec.Header().Get("X-Request-Id")
	if id == "" {
		t.Fatal("panicking request must still carry an X-Request-Id")
	}
	if body := rec.Body.String(); !strings.Contains(body, id) {
		t.Fatalf("500 body %q must reference request id %s so logs correlate", body, id)
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}

	// The server is still alive and the counter is visible to operators.
	resp, _ := postQuery(t, ts.URL, "select count(*) from events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after panic = %d, want 200", resp.StatusCode)
	}
	if st := getStats(t, ts.URL); st.Server.Panics != 1 {
		t.Fatalf("stats panics = %d, want 1", st.Server.Panics)
	}
}

// TestPanicMidResponse covers the half-written case: once a handler has
// started the response, recovery must not stack a second status/body on
// top of the partial one.
func TestPanicMidResponse(t *testing.T) {
	s, _ := newTestServer(t, Config{})

	h := s.wrap(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		panic("boom after headers")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/panic", nil))

	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d; recovery must not overwrite an already-written response", rec.Code)
	}
	if body := rec.Body.String(); strings.Contains(body, "internal error") {
		t.Fatalf("recovery appended an error envelope to a started response: %q", body)
	}
	if got := s.panics.Load(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
}

// TestFollowBackoffSurfacedInStats exercises the per-table refresh
// backoff bookkeeping and its /v1/stats surfacing: failures double the
// retry delay and show up as refresh_backoff, success clears both.
func TestFollowBackoffSurfacedInStats(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	now := time.Now()
	interval := time.Second
	if !s.followDue("events", now) {
		t.Fatal("a table with no failure history is always due")
	}
	s.followFailed("events", interval, now)
	s.followFailed("events", interval, now)
	s.followFailed("events", interval, now)

	// Three failures → delay 4*interval; due again only after it passes.
	if s.followDue("events", now.Add(3*time.Second)) {
		t.Fatal("table must still be backing off before 4*interval")
	}
	if !s.followDue("events", now.Add(5*time.Second)) {
		t.Fatal("table must be due again once the backoff window passes")
	}

	st := getStats(t, ts.URL)
	if got := st.Server.RefreshBackoff["events"]; got != 3 {
		t.Fatalf("refresh_backoff[events] = %d, want 3", got)
	}

	s.followOK("events")
	if !s.followDue("events", now) {
		t.Fatal("a successful refresh must clear the backoff")
	}
	if st := getStats(t, ts.URL); len(st.Server.RefreshBackoff) != 0 {
		t.Fatalf("refresh_backoff = %v, want empty after recovery", st.Server.RefreshBackoff)
	}
}

// TestFollowBackoffCap pins the cap: a table that has failed for ages
// retries once per followBackoffCap window, never slower, and the shift
// arithmetic must not overflow into a negative (always-due) delay.
func TestFollowBackoffCap(t *testing.T) {
	s, _ := newTestServer(t, Config{})

	now := time.Now()
	for i := 0; i < 40; i++ { // enough failures to overflow a naive shift
		s.followFailed("events", time.Second, now)
	}
	if s.followDue("events", now.Add(followBackoffCap-time.Second)) {
		t.Fatal("capped table must not be due just before the cap window")
	}
	if !s.followDue("events", now.Add(followBackoffCap+time.Second)) {
		t.Fatal("capped table must be due after one cap window")
	}
}

// TestHealthzOKWhenNotDegraded pins the healthy liveness body; the
// degraded flip is covered end-to-end by TestServerHealthzDegraded in
// the root package, which needs the fault-injecting FS seam.
func TestHealthzOKWhenNotDegraded(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = (%d, %v), want (200, status ok)", resp.StatusCode, body)
	}
}
