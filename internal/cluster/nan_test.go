package cluster_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"nodb/internal/cluster"
)

// TestCoordinatorNaNResult: avg over zero rows is NaN, which JSON cannot
// represent. The coordinator's buffered /query answers with the same
// error envelope as a single node (not a 200 with an empty body) and
// counts the query as failed; its stream reports the same in-band error
// trailer a single node does.
func TestCoordinatorNaNResult(t *testing.T) {
	shards, single := buildCluster(t, testRows, 3)
	coord := startCoordinator(t, cluster.CoordinatorConfig{Shards: shards})
	const q = "select avg(a1) from t where a1 < 0"

	post := func(base string) (int, string) {
		body, _ := json.Marshal(map[string]string{"query": q})
		resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	wantCode, wantBody := post(single.URL)
	gotCode, gotBody := post(coord.URL)
	if wantCode != http.StatusUnprocessableEntity {
		t.Fatalf("single node: %d %s, want 422", wantCode, wantBody)
	}
	if gotCode != wantCode || gotBody != wantBody {
		t.Fatalf("coordinator: %d %s\nsingle node: %d %s", gotCode, gotBody, wantCode, wantBody)
	}

	var stats struct {
		Server struct {
			Failed int64 `json:"failed"`
		} `json:"server"`
	}
	resp, err := http.Get(coord.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Server.Failed != 1 {
		t.Fatalf("coordinator failed = %d after the NaN query, want 1", stats.Server.Failed)
	}

	want, got := stream(t, single.URL, q), stream(t, coord.URL, q)
	if want.errLine != `{"error":"json: unsupported value: NaN"}` || got.errLine != want.errLine ||
		len(got.rows) != 0 || got.trailer != "" {
		t.Fatalf("coordinator stream %+v, single node %+v", got, want)
	}
}
