// Exploration: the paper's motivating scientist (§1.2). A new instrument
// dump lands every day — hundreds of columns, and nobody knows yet which
// ones matter. The scientist zooms into a region, refines, jumps to other
// attributes, and edits the file by hand; the engine keeps up with zero
// administration, loading only what each query touches (Partial Loads V2).
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

import "nodb"

func main() {
	dir, err := os.MkdirTemp("", "nodb-exploration-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Today's instrument dump: 200k events x 16 attributes. The scientist
	// will look at 3 of them.
	path := filepath.Join(dir, "run-2026-06-12.csv")
	writeDump(path, 200_000, 16)

	db := nodb.Open(nodb.Options{Policy: nodb.PartialLoadsV2})
	defer db.Close()
	if err := db.Attach("events", nodb.TableSpec{Path: path}); err != nil {
		log.Fatal(err)
	}

	session := []struct {
		intent string
		query  string
	}{
		{"is there anything interesting in the a3 band 50k-80k?",
			"select count(*), avg(a7) from events where a3 > 50000 and a3 < 80000"},
		{"zoom into the top of that band",
			"select count(*), avg(a7), max(a7) from events where a3 > 70000 and a3 < 80000"},
		{"zoom further",
			"select count(*), min(a7), max(a7) from events where a3 > 74000 and a3 < 76000"},
		{"re-check the first cut (already cached)",
			"select count(*), avg(a7) from events where a3 > 50000 and a3 < 80000"},
		{"pan to a different attribute entirely",
			"select count(*), avg(a12) from events where a3 > 50000 and a3 < 80000"},
	}
	for i, step := range session {
		res, err := db.Query(step.query)
		if err != nil {
			log.Fatal(err)
		}
		w := res.Stats.Work
		fromFile := "went back to the file"
		if w.RawBytesRead == 0 {
			fromFile = "answered from the adaptive store"
		}
		fmt.Printf("step %d (%s):\n%s  -> %s (%d raw bytes, %d rows abandoned early)\n\n",
			i+1, step.intent, res, fromFile, w.RawBytesRead, w.RowsAbandoned)
	}

	// The scientist edits the file with a text editor (paper §2.1) —
	// derived state is dropped and the next query sees the new data.
	fmt.Println("editing the raw file in place...")
	time.Sleep(10 * time.Millisecond)
	writeDump(path, 50_000, 16)
	res, err := db.Query("select count(*) from events")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after the edit: %s", res)
}

func writeDump(path string, rows, cols int) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < rows; i++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				fmt.Fprint(f, ",")
			}
			fmt.Fprint(f, rng.Intn(100_000))
		}
		fmt.Fprintln(f)
	}
}
