// Command nodb is the interactive shell: attach raw CSV files and fire SQL
// at them with zero loading steps — the paper's "here are my data files,
// here are my queries" experience.
//
// Usage:
//
//	nodb [-policy columns|full|partial-v1|partial-v2|external|auto]
//	     [-mem bytes] [-evict cost|lru]
//	     [-cachedir dir] [-workers n] [-chunksize bytes] [-batchsize rows]
//	     [name=path.csv ...]
//
// With -cachedir, everything the session teaches the engine (positional
// maps, cached columns, coverage, synopses) is snapshotted there on
// exit and restored lazily when a later session points at the same files —
// the shell starts warm instead of re-learning.
//
// Files given as name=path arguments are attached at startup. Commands:
//
//	\attach <name> <path> attach a raw file as a table
//	\detach <name>        forget a table
//	\tables               list attached tables
//	\schema <name>        show a table's detected schema
//	\policy [name]        show or switch the loading policy
//	\explain <sql>        show the physical plan with its load operators
//	\stats                cumulative work counters and store size
//	\quit                 exit
//
// Anything else is executed as SQL.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"nodb"
	"nodb/internal/cliutil"
)

func main() {
	var (
		policyName = flag.String("policy", "columns", "loading policy")
		mem        = flag.Int64("mem", 0, "memory budget in bytes (0 = unlimited)")
		evict      = flag.String("evict", "cost", "eviction policy under -mem: cost or lru")
		cacheDir   = flag.String("cachedir", "", "persistent auxiliary-structure cache directory (empty = no disk tier)")
		workers    = flag.Int("workers", 0, "tokenizer workers (0 = one per CPU; 1 = sequential)")
		chunkSize  = flag.Int("chunksize", 0, "raw-file read chunk size in bytes (0 = default)")
		batchSize  = flag.Int("batchsize", 0, "rows per vectorized execution batch (0 = default, 1024)")
	)
	flag.Parse()
	cliutil.Exit(cliutil.CheckFlags(
		cliutil.NonNegativeInt("nodb", "workers", *workers),
		cliutil.NonNegativeInt("nodb", "chunksize", *chunkSize),
		cliutil.NonNegativeInt64("nodb", "mem", *mem),
		cliutil.NonNegativeInt("nodb", "batchsize", *batchSize),
	))

	pol, err := nodb.ParsePolicy(*policyName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nodb: %v\n", err)
		os.Exit(2)
	}
	db, err := nodb.OpenErr(nodb.Options{
		Policy:         pol,
		MemoryBudget:   *mem,
		EvictionPolicy: *evict,
		CacheDir:       *cacheDir,
		Workers:        *workers,
		ChunkSize:      *chunkSize,
		BatchSize:      *batchSize,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nodb: %v\n", err)
		os.Exit(2)
	}
	defer db.Close()

	for _, arg := range flag.Args() {
		name, path, ok := strings.Cut(arg, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "nodb: argument %q is not name=path\n", arg)
			os.Exit(2)
		}
		if err := db.Attach(name, nodb.TableSpec{Path: path}); err != nil {
			fmt.Fprintf(os.Stderr, "nodb: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("attached %s -> %s\n", name, path)
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Println("nodb shell — \\attach a CSV and start querying (\\quit to exit)")
	for {
		fmt.Print("nodb> ")
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if quit := command(db, line); quit {
				return
			}
			continue
		}
		res, err := db.Query(line)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			continue
		}
		fmt.Print(res.String())
		w := res.Stats.Work
		fmt.Printf("(%d rows; %v; raw %s read, %d values parsed, %d cache hits)\n",
			len(res.Rows), res.Stats.Wall.Round(10_000), fmtBytes(w.RawBytesRead), w.ValuesParsed, w.CacheHits)
	}
}

// command handles a backslash command; reports whether to quit.
func command(db *nodb.DB, line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\quit", "\\q":
		return true
	case "\\attach":
		if len(fields) != 3 {
			fmt.Println("usage: \\attach <name> <path>")
			return false
		}
		if err := db.Attach(fields[1], nodb.TableSpec{Path: fields[2]}); err != nil {
			fmt.Printf("error: %v\n", err)
			return false
		}
		sch, _ := db.Schema(fields[1])
		fmt.Printf("attached %s %s\n", fields[1], sch)
	case "\\detach":
		if len(fields) != 2 {
			fmt.Println("usage: \\detach <name>")
			return false
		}
		if err := db.Detach(fields[1]); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	case "\\tables":
		for _, t := range db.Tables() {
			fmt.Println(t)
		}
	case "\\schema":
		if len(fields) != 2 {
			fmt.Println("usage: \\schema <name>")
			return false
		}
		sch, err := db.Schema(fields[1])
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return false
		}
		fmt.Println(sch)
	case "\\policy":
		if len(fields) == 1 {
			fmt.Println(db.Policy())
			return false
		}
		p, err := nodb.ParsePolicy(fields[1])
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return false
		}
		db.SetPolicy(p)
		fmt.Printf("policy is now %s\n", p)
	case "\\explain":
		q := strings.TrimSpace(strings.TrimPrefix(line, "\\explain"))
		s, err := db.Explain(q)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return false
		}
		fmt.Print(s)
	case "\\stats":
		w := db.Work()
		fmt.Printf("raw read:        %s\n", fmtBytes(w.RawBytesRead))
		fmt.Printf("rows tokenized:  %d\n", w.RowsTokenized)
		fmt.Printf("values parsed:   %d\n", w.ValuesParsed)
		fmt.Printf("rows abandoned:  %d\n", w.RowsAbandoned)
		fmt.Printf("cache hit/miss:  %d/%d\n", w.CacheHits, w.CacheMisses)
		fmt.Printf("posmap hit/miss: %d/%d\n", w.PosMapHits, w.PosMapMisses)
		fmt.Printf("synopsis:        %d scans pruned, %d portions skipped\n", w.SynopsisHits, w.PortionsSkipped)
		fmt.Printf("store size:      %s\n", fmtBytes(db.MemSize()))
		if ss := db.SnapStats(); ss.Enabled {
			fmt.Printf("snapshot cache:  %s (hit %d, miss %d, save %d, spill %d, invalid %d)\n",
				ss.Dir, ss.Hits, ss.Misses, ss.Saves, ss.Spills, ss.Invalidations)
		}
	default:
		fmt.Printf("unknown command %s\n", fields[0])
	}
	return false
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
