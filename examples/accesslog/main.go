// Accesslog: querying newline-delimited JSON in situ. Structured logs are
// the NDJSON files everyone has lying around — one JSON object per line,
// straight from a web server or a log shipper — and loading them into a
// database is exactly the setup step NoDB removes. Attach the file, query
// it; the engine tokenizes only the queried fields' byte ranges and delays
// JSON value parsing to the fields a query actually touches.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"nodb"
)

func main() {
	dir, err := os.MkdirTemp("", "nodb-accesslog-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	logPath := filepath.Join(dir, "access.ndjson")
	writeAccessLog(logPath, 100_000)

	// Partial loads push the WHERE clause into tokenization: rows failing
	// the status predicate are abandoned before their other fields are
	// even delimited, let alone parsed.
	db := nodb.Open(nodb.Options{Policy: nodb.PartialLoadsV2})
	defer db.Close()
	if err := db.Attach("access", nodb.TableSpec{Path: logPath}); err != nil {
		log.Fatal(err)
	}

	sch, _ := db.Schema("access")
	fmt.Printf("detected schema of access.ndjson: %s\n\n", sch)

	res, err := db.Query("select count(*), sum(bytes) from access where status >= 500")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("server errors and bytes served on them:")
	fmt.Println(res)
	w1 := res.Stats.Work
	fmt.Printf("(raw bytes read: %d, values parsed: %d)\n\n", w1.RawBytesRead, w1.ValuesParsed)

	// The follow-up touches the same rows: the adaptive store answers
	// from retained values instead of re-reading the file.
	res2, err := db.Query("select avg(ms) from access where status >= 500")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("latency of those errors:")
	fmt.Println(res2)
	w2 := res2.Stats.Work
	fmt.Printf("(raw bytes read: %d, values parsed: %d)\n\n", w2.RawBytesRead, w2.ValuesParsed)

	// Grouping over a string field — paths stay raw bytes in the file
	// until a query projects them.
	res3, err := db.Query(`
		select path, count(*)
		from access
		where status = 404
		group by path
		order by path
		limit 5`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top missing paths:")
	fmt.Println(res3)
}

func writeAccessLog(path string, rows int) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(7))
	paths := []string{"/", "/index.html", "/api/items", "/api/login", "/favicon.ico", "/robots.txt", "/old-page"}
	statuses := []int{200, 200, 200, 200, 301, 404, 500, 503}
	for i := 0; i < rows; i++ {
		fmt.Fprintf(f, `{"ts":%d,"path":"%s","status":%d,"bytes":%d,"ms":%.1f}`+"\n",
			1700000000+int64(i), paths[rng.Intn(len(paths))],
			statuses[rng.Intn(len(statuses))], rng.Intn(50_000), rng.Float64()*250)
	}
}
