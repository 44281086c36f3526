package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"nodb/internal/qos"
)

func TestRequestIDEchoAndGenerate(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/tables", nil)
	req.Header.Set("X-Request-Id", "my-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "my-trace-42" {
		t.Fatalf("echoed request id = %q, want my-trace-42", got)
	}

	for _, path := range []string{"/v1/stats", "/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.Header.Get("X-Request-Id") == "" {
			t.Errorf("%s: no generated X-Request-Id", path)
		}
	}
}

func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != "invalid_request" || env.Error.Message == "" {
		t.Fatalf("envelope = %+v, want code invalid_request with a message", env.Error)
	}
}

// TestNoClusterSynopsisRoute: nodbd serves one node, so the synopsis
// export a scatter-gather coordinator once read is not a route.
func TestNoClusterSynopsisRoute(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/cluster/synopsis")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/cluster/synopsis = %d, want 404", resp.StatusCode)
	}
}

// TestReadyzGatesOnMarkReady: /readyz answers 503 until MarkReady, so a
// load balancer routes nothing at a node still attaching files, while
// /healthz is live from the start.
func TestReadyzGatesOnMarkReady(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before MarkReady = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before MarkReady = %d, want 200", code)
	}
	s.MarkReady()
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after MarkReady = %d, want 200", code)
	}
}

func testRegistry(t *testing.T, reject bool) *qos.Registry {
	t.Helper()
	reg, err := qos.NewRegistry([]qos.Tenant{
		{Name: "alpha", Key: "alpha-key", Weight: 3},
		{Name: "beta", Key: "beta-key", Weight: 1},
	}, reject)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestUnknownAPIKeyPolicy(t *testing.T) {
	query := `{"query":"select count(*) from events"}`

	do := func(ts string, key string) (*http.Response, errorEnvelope) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts+"/v1/query", strings.NewReader(query))
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env errorEnvelope
		b, _ := io.ReadAll(resp.Body)
		_ = json.Unmarshal(b, &env)
		return resp, env
	}

	t.Run("reject", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Tenants: testRegistry(t, true)})
		resp, env := do(ts.URL, "nope")
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("unknown key status = %d, want 401", resp.StatusCode)
		}
		if env.Error.Code != "unknown_api_key" {
			t.Fatalf("error code = %q, want unknown_api_key", env.Error.Code)
		}
		if resp, _ := do(ts.URL, "alpha-key"); resp.StatusCode != http.StatusOK {
			t.Fatalf("known key status = %d, want 200", resp.StatusCode)
		}
	})

	t.Run("default", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Tenants: testRegistry(t, false)})
		if resp, _ := do(ts.URL, "nope"); resp.StatusCode != http.StatusOK {
			t.Fatalf("unknown key under default policy = %d, want 200", resp.StatusCode)
		}
		if resp, _ := do(ts.URL, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("missing key under default policy = %d, want 200", resp.StatusCode)
		}
	})
}

// TestTenantAdmissionPartitioned verifies one tenant exhausting its slots
// draws tenant-scoped 429s while another tenant still admits.
func TestTenantAdmissionPartitioned(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 4, Tenants: testRegistry(t, false)})

	// Under the allow policy the registry adds an implicit default tenant
	// (weight 1), so weights are alpha:3 beta:1 default:1 over 4 global
	// slots → alpha 2, beta 1, default 1. Fill beta's single slot by hand.
	beta := s.tenants["beta"]
	if beta == nil || cap(beta.sem) != 1 {
		t.Fatalf("beta slots = %v, want 1", beta)
	}
	alpha := s.tenants["alpha"]
	if alpha == nil || cap(alpha.sem) != 2 {
		t.Fatalf("alpha slots = %v, want 2", alpha)
	}
	beta.sem <- struct{}{}
	defer func() { <-beta.sem }()

	do := func(key string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query",
			strings.NewReader(`{"query":"select count(*) from events"}`))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-API-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := do("beta-key"); code != http.StatusTooManyRequests {
		t.Fatalf("beta at capacity = %d, want 429", code)
	}
	if code := do("alpha-key"); code != http.StatusOK {
		t.Fatalf("alpha while beta saturated = %d, want 200", code)
	}
	if beta.rejected.Load() != 1 {
		t.Fatalf("beta rejected = %d, want 1", beta.rejected.Load())
	}
	if alpha.rejected.Load() != 0 {
		t.Fatalf("alpha rejected = %d, want 0", alpha.rejected.Load())
	}
}

// TestStatsTenantsAndResultCache checks the /v1/stats sections the QoS
// layer adds.
func TestStatsTenantsAndResultCache(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 4, Tenants: testRegistry(t, false)})

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/query",
				strings.NewReader(`{"query":"select count(*) from events"}`))
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-API-Key", "alpha-key")
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ResultCache struct {
			Enabled bool `json:"enabled"`
		} `json:"result_cache"`
		Tenants map[string]struct {
			Weight float64 `json:"weight"`
			Slots  int     `json:"slots"`
			Served int64   `json:"served"`
		} `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ResultCache.Enabled {
		t.Fatal("result cache reported enabled on a server whose DB has none")
	}
	a, ok := out.Tenants["alpha"]
	if !ok {
		t.Fatalf("stats missing tenant alpha: %+v", out.Tenants)
	}
	if a.Weight != 3 || a.Slots != 2 {
		t.Fatalf("alpha = %+v, want weight 3, slots 2", a)
	}
	if a.Served == 0 {
		t.Fatal("alpha served 0 queries after serving 3")
	}
}
