// Policies: run the same shifting workload under every loading policy and
// watch where the bytes go — a miniature of the paper's Figures 3 and 4.
// Full loading pays everything up front; column loads pay per touched
// column; partial loads pay per qualifying value; external tables never
// stop. (Figure 4's split-file series is not an engine policy; nodbbench
// -exp fig4 runs it.)
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
	dir, err := os.MkdirTemp("", "nodb-policies-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	path := filepath.Join(dir, "wide.csv")
	writeTable(path, 100_000, 8)

	queries := []string{
		"select sum(a1), avg(a2) from t where a1 > 10000 and a1 < 20000",
		"select sum(a1), avg(a2) from t where a1 > 12000 and a1 < 18000", // narrower
		"select sum(a7), avg(a8) from t where a7 > 30000 and a7 < 40000", // column shift
		"select sum(a7), avg(a8) from t where a7 > 30000 and a7 < 40000", // repeat
	}

	policies := []nodb.Policy{
		nodb.FullLoad, nodb.ColumnLoads, nodb.PartialLoadsV1,
		nodb.PartialLoadsV2, nodb.External,
	}

	fmt.Printf("%-12s", "policy")
	for i := range queries {
		fmt.Printf("  %12s", fmt.Sprintf("Q%d raw KiB", i+1))
	}
	fmt.Printf("  %12s\n", "store KiB")

	for _, pol := range policies {
		db := nodb.Open(nodb.Options{Policy: pol})
		if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s", pol)
		var last *nodb.Result
		for _, q := range queries {
			res, err := db.Query(q)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %12.0f", float64(res.Stats.Work.RawBytesRead)/1024)
			last = res
		}
		fmt.Printf("  %12.0f\n", float64(db.MemSize())/1024)
		_ = last
		db.Close()
	}
	fmt.Println("\nevery policy returns identical answers; they differ only in when the work happens.")
}

func writeTable(path string, rows, cols int) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(3))
	perm := rng.Perm(rows)
	for i := 0; i < rows; i++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				fmt.Fprint(f, ",")
			}
			// Column 0 and the rest are permutations so range selectivity
			// is predictable.
			if c == 0 {
				fmt.Fprint(f, perm[i])
			} else {
				fmt.Fprint(f, (perm[i]*(c+13))%rows)
			}
		}
		fmt.Fprintln(f)
	}
}
