//go:build layerprobe

// Probe server: the HTTP handlers without a network. The same statements
// run through the handler and straight against the engine; the difference
// is request decoding plus JSON or NDJSON encoding.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"nodb"
	"nodb/bench/nodbperf/layers/probe"
	"nodb/internal/server"
)

func main() {
	in := probe.Load()
	ctx := context.Background()
	db := nodb.Open(nodb.Options{})
	defer db.Close()
	probe.Check(db.Attach("wide", nodb.TableSpec{Path: in.File}))
	srv := server.New(server.Config{DB: db})
	defer srv.Close()

	call := func(path, q string) *httptest.ResponseRecorder {
		body, _ := json.Marshal(map[string]string{"query": q})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			probe.Fatal(fmt.Errorf("POST %s: HTTP %d: %.200s", path, rec.Code, rec.Body.String()))
		}
		return rec
	}
	for _, q := range in.Hot { // load every column the mix reads
		call("/v1/query", q)
	}
	handler := probe.Median("server.query", 3, func() {
		for _, q := range in.Hot {
			call("/v1/query", q)
		}
	})
	probe.Set("server.query_us", handler.Seconds()*1e6/float64(len(in.Hot)), "us")

	var rows int
	call("/v1/query/stream", in.Export)
	stream := probe.Median("server.stream", 5, func() {
		rows = bytes.Count(call("/v1/query/stream", in.Export).Body.Bytes(), []byte("\n")) - 2
	})
	cursor := probe.Median("core.rows", 5, func() {
		r, err := db.QueryRows(ctx, in.Export)
		probe.Check(err)
		defer r.Close()
		for r.Next() {
			_ = r.Row()
		}
		probe.Check(r.Err())
	})
	if rows <= 0 {
		probe.Fatal(fmt.Errorf("stream returned no rows"))
	}
	probe.Set("server.encode_ns_per_row", float64((stream-cursor).Nanoseconds())/float64(rows), "ns")
	probe.Emit()
}
