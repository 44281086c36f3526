// Quickstart: the paper's pitch in 40 lines — here is a data file, here
// are queries, where are the results? No schema declaration, no load step.
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
	dir, err := os.MkdirTemp("", "nodb-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Your data file: plain CSV, written by whatever produced it.
	path := filepath.Join(dir, "measurements.csv")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100_000; i++ {
		fmt.Fprintf(f, "%d,%d,%d,%d\n", i, rng.Intn(1000), rng.Intn(1000), rng.Intn(1000))
	}
	f.Close()

	// Point the engine at it and query. That's the whole setup.
	db := nodb.Open(nodb.Options{})
	defer db.Close()
	if err := db.Attach("m", nodb.TableSpec{Path: path}); err != nil {
		log.Fatal(err)
	}

	res, err := db.Query("select count(*), sum(a2), avg(a3), max(a4) from m where a1 between 1000 and 2000")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	fmt.Printf("first query read %d raw bytes (loading happened as a side effect)\n",
		res.Stats.Work.RawBytesRead)

	// The second query over the same columns never touches the file.
	res2, err := db.Query("select avg(a2) from m where a1 < 500")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res2)
	fmt.Printf("second query read %d raw bytes (served by the adaptive store)\n",
		res2.Stats.Work.RawBytesRead)
}
