package nodb_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nodb"
	"nodb/internal/server"
)

// TestWidthStreamMatchesOracle: /v1/query/stream encodes int columns of
// every stored width (the width table, see width_test.go) as the oracle
// renders them, row for row.
func TestWidthStreamMatchesOracle(t *testing.T) {
	q := "select a1, a2, a3, a4, a5, a6, a7 from t where a8 < 500 order by a6, a4, a1, a3"
	path, want := nodb.WidthStreamForTest(t, t.TempDir(), q)
	if strings.Count(want, "\n") < 1000 {
		t.Fatalf("the oracle keeps %d rows, want over 1000", strings.Count(want, "\n"))
	}
	for _, policy := range []nodb.Policy{nodb.ColumnLoads, nodb.PartialLoadsV2, nodb.Auto} {
		db := nodb.Open(nodb.Options{Policy: policy, Workers: 2, ChunkSize: 8 << 10})
		if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
			t.Fatal(err)
		}
		// Load the columns first, so the stream reads the stored widths.
		if _, err := db.Query("select sum(a1), sum(a2), sum(a3), sum(a4), sum(a5), sum(a6), sum(a7), sum(a8) from t"); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(server.Config{DB: db}))
		body, _ := json.Marshal(map[string]string{"query": q})
		resp, err := http.Post(ts.URL+"/v1/query/stream", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got strings.Builder
		sc := bufio.NewScanner(resp.Body)
		sc.Scan() // the header line
		for sc.Scan() {
			line := sc.Bytes()
			if bytes.HasPrefix(line, []byte(`{"stats"`)) {
				break
			}
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.UseNumber()
			var row []json.Number
			if err := dec.Decode(&row); err != nil {
				t.Fatalf("row %q: %v", line, err)
			}
			for i, v := range row {
				if i > 0 {
					got.WriteByte('|')
				}
				got.WriteString(v.String())
			}
			got.WriteByte('\n')
		}
		resp.Body.Close()
		ts.Close()
		db.Close()
		if got.String() != want {
			t.Errorf("policy %v: stream differs from the oracle:\n got %.300q\nwant %.300q", policy, got.String(), want)
		}
	}
}
