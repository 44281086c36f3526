// Command nodbd is the NoDB query server: it attaches raw CSV files to one
// shared engine and serves SQL over HTTP/JSON to many concurrent clients.
//
// Usage:
//
//	nodbd [-addr :8080] [-policy columns|full|partial-v1|partial-v2|splitfiles|external|auto]
//	      [-mem bytes] [-result-cache bytes] [-splitdir dir]
//	      [-workers n] [-chunksize bytes] [-cachedir dir] [-snapshot-interval d]
//	      [-follow d] [-tenants spec] [-tenant-unknown reject|default] [-pprof addr]
//	      [-max-inflight n] [-timeout d] [-max-timeout d] [-grace d]
//	      name=path.csv [name=path.csv ...]
//
//	nodbd -coordinator -shards host1:8080,host2:8080,host3:8080
//	      [-shard-timeout d] [-shard-retries n] [-retry-backoff d]
//	      [-synopsis-ttl d] [-health-interval d] [-partial-results]
//
// In coordinator mode nodbd holds no data: it fans each query out to the
// shard nodbd instances, pushes filters and partial aggregates down so
// only reduced rows cross the network, consults cached shard synopses to
// skip shards whose zone maps prove zero qualifying rows, and merges the
// NDJSON partial streams into one result with the same HTTP surface as a
// single node. With -partial-results a dead shard degrades the answer
// (reported in the stats trailer) instead of failing the query.
//
// Multi-tenant serving: -tenants takes "name:key[:weight],..." (or
// "@file" with one entry per line) and partitions both the -mem budget
// and the -max-inflight admission slots by weight. Clients select their
// tenant with the X-API-Key header; -tenant-unknown decides whether a
// request with no (or an unrecognized) key is rejected with 401 or served
// as the built-in default tenant. -result-cache bounds a result cache
// keyed on normalized SQL plus raw-file signatures, so identical queries
// against unchanged files answer without touching the engine, and
// identical in-flight queries collapse into one execution.
//
// With -follow, nodbd polls every followed table's raw file at the given
// interval (plain stat calls — no notification dependency) and folds
// appended rows into the learned structures incrementally: the positional
// map, cached columns, coverage regions, scan synopsis and split files
// all extend over just the new tail, so a growing log keeps its warmed-up
// query latency. Tables named on the command line are followed when
// -follow is set; tables attached later via PUT /v1/tables/{name} choose
// per table with "follow": true. Edits that are not pure appends are
// detected by checksums and invalidate the derived state, exactly as a
// query would.
//
// With -cachedir, the auxiliary structures the workload teaches the engine
// are snapshotted there periodically (-snapshot-interval) and on shutdown,
// and restored lazily after a restart — the server comes back warm instead
// of re-paying the adaptive learning curve under live traffic. Mount the
// cache dir on a volume that survives the process for that to matter.
//
// Example:
//
//	nodbd -addr :8080 -policy partial-v2 events=events.csv
//	curl -s localhost:8080/v1/query -d '{"query": "select count(*) from events"}'
//
//	# Stream a large result as NDJSON: rows arrive while the scan runs,
//	# and hanging up stops the scan mid-file.
//	curl -sN localhost:8080/v1/query/stream -d '{"query": "select a1, a2 from events where a1 > 10"}'
//
// The server enforces admission control (-max-inflight; excess requests
// get 429), applies a per-query timeout (-timeout, overridable per request
// up to -max-timeout), and shuts down gracefully on SIGINT/SIGTERM:
// in-flight queries get a grace period, new ones are refused, and
// cancellation propagates into running scans.
//
// With -pprof, net/http/pprof is served on a *separate* listener (off by
// default) so profiling stays off the query port and can be bound to
// localhost while the query API faces the network:
//
//	nodbd -addr :8080 -pprof localhost:6060 events=events.csv
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nodb"
	"nodb/internal/cliutil"
	"nodb/internal/cluster"
	"nodb/internal/qos"
	"nodb/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		policyName   = flag.String("policy", "columns", "loading policy")
		mem          = flag.Int64("mem", 0, "memory budget in bytes (0 = unlimited)")
		evict        = flag.String("evict", "cost", "eviction policy under -mem: cost or lru")
		resultCache  = flag.Int64("result-cache", 0, "result cache budget in bytes (0 = disabled)")
		tenantSpec   = flag.String("tenants", "", `tenant spec "name:key[:weight],..." or "@file"; empty = single-tenant`)
		tenantPolicy = flag.String("tenant-unknown", "default", "unknown API keys: reject (401) or default (serve as default tenant)")
		splitDir     = flag.String("splitdir", "", "directory for split files (default: $TMPDIR/nodb-splits)")
		cacheDir     = flag.String("cachedir", "", "persistent auxiliary-structure cache directory (empty = no disk tier)")
		snapInterval = flag.Duration("snapshot-interval", 5*time.Minute, "how often to flush snapshots to -cachedir (0 = only on shutdown)")
		follow       = flag.Duration("follow", 0, "tail-follow poll interval: re-stat followed tables this often and ingest appended rows incrementally (0 = disabled)")
		workers      = flag.Int("workers", 0, "tokenizer workers (0 = one per CPU; 1 = sequential)")
		chunkSize    = flag.Int("chunksize", 0, "raw-file read chunk size in bytes (0 = default)")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this separate listen address (e.g. localhost:6060); empty = disabled")
		maxInFlight  = flag.Int("max-inflight", 64, "max concurrently executing queries; excess requests get 429")
		timeout      = flag.Duration("timeout", 30*time.Second, "default per-query timeout (0 = none)")
		maxTimeout   = flag.Duration("max-timeout", 5*time.Minute, "cap on per-request timeout_ms (0 = no cap)")
		grace        = flag.Duration("grace", 10*time.Second, "shutdown grace period for in-flight queries")

		coordinator    = flag.Bool("coordinator", false, "run as a scatter-gather coordinator over -shards instead of serving local data")
		shards         = flag.String("shards", "", "comma-separated shard addresses (coordinator mode)")
		shardTimeout   = flag.Duration("shard-timeout", 30*time.Second, "per-attempt timeout against each shard (0 = none)")
		shardRetries   = flag.Int("shard-retries", 2, "retries per failed shard interaction (total attempts = retries+1)")
		retryBackoff   = flag.Duration("retry-backoff", 100*time.Millisecond, "first retry backoff, doubling per retry")
		synopsisTTL    = flag.Duration("synopsis-ttl", 5*time.Second, "how long cached shard synopses are trusted for pruning")
		healthInterval = flag.Duration("health-interval", 2*time.Second, "shard /readyz polling period (0 = no background poller)")
		partialResults = flag.Bool("partial-results", false, "complete queries with partial results when a shard stays dead (reported in the stats trailer)")
	)
	flag.Parse()

	var rejectUnknown bool
	switch *tenantPolicy {
	case "reject":
		rejectUnknown = true
	case "default":
	default:
		fmt.Fprintf(os.Stderr, "nodbd: -tenant-unknown must be reject or default, got %q\n", *tenantPolicy)
		os.Exit(2)
	}
	var tenants []nodb.TenantConfig
	var registry *qos.Registry
	if *tenantSpec != "" {
		var err error
		tenants, err = qos.ParseTenantSpec(*tenantSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nodbd: -tenants: %v\n", err)
			os.Exit(2)
		}
		registry, err = qos.NewRegistry(tenants, rejectUnknown)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nodbd: -tenants: %v\n", err)
			os.Exit(2)
		}
	}

	if *coordinator {
		runCoordinator(coordinatorOpts{
			addr:           *addr,
			shards:         *shards,
			shardTimeout:   *shardTimeout,
			shardRetries:   *shardRetries,
			retryBackoff:   *retryBackoff,
			synopsisTTL:    *synopsisTTL,
			healthInterval: *healthInterval,
			partialResults: *partialResults,
			maxInFlight:    *maxInFlight,
			timeout:        *timeout,
			maxTimeout:     *maxTimeout,
			grace:          *grace,
			tenants:        registry,
		})
		return
	}
	cliutil.Exit(cliutil.CheckFlags(
		cliutil.NonNegativeInt("nodbd", "workers", *workers),
		cliutil.NonNegativeInt("nodbd", "chunksize", *chunkSize),
		cliutil.NonNegativeInt64("nodbd", "mem", *mem),
		cliutil.OptionalListenAddr("nodbd", "pprof", *pprofAddr),
	))

	pol, err := nodb.ParsePolicy(*policyName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nodbd: %v\n", err)
		os.Exit(2)
	}
	sd := *splitDir
	if sd == "" {
		sd = os.TempDir() + "/nodb-splits"
	}
	db, err := nodb.OpenErr(nodb.Options{
		Policy:           pol,
		MemoryBudget:     *mem,
		EvictionPolicy:   *evict,
		ResultCacheBytes: *resultCache,
		Tenants:          tenants,
		SplitDir:         sd,
		CacheDir:         *cacheDir,
		Workers:          *workers,
		ChunkSize:        *chunkSize,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nodbd: %v\n", err)
		os.Exit(2)
	}
	defer db.Close()

	for _, arg := range flag.Args() {
		name, path, ok := strings.Cut(arg, "=")
		if !ok {
			fmt.Fprintf(os.Stderr, "nodbd: argument %q is not name=path\n", arg)
			os.Exit(2)
		}
		if err := db.Attach(name, nodb.TableSpec{Path: path, Follow: *follow > 0}); err != nil {
			fmt.Fprintf(os.Stderr, "nodbd: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("attached %s -> %s\n", name, path)
	}

	snapEvery := *snapInterval
	if *cacheDir == "" {
		snapEvery = 0 // no disk tier: nothing to flush
	}
	srv := server.New(server.Config{
		DB:               db,
		MaxInFlight:      *maxInFlight,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		SnapshotInterval: snapEvery,
		FollowInterval:   *follow,
		Tenants:          registry,
	})
	defer srv.Close()
	// Every table is attached: flip the readiness probe so coordinators
	// start routing queries here.
	srv.MarkReady()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *pprofAddr != "" {
		// pprof gets its own mux and listener: nothing from the profiling
		// surface leaks onto the query port, and the address can stay
		// loopback-only. Best-effort — a failed pprof listener is reported
		// but does not take the query server down.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofAddr, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "nodbd: pprof listener: %v\n", err)
			}
		}()
		defer psrv.Close()
		fmt.Printf("pprof listening on %s\n", *pprofAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("nodbd listening on %s (policy=%s, max-inflight=%d)\n", *addr, pol, *maxInFlight)

	select {
	case <-ctx.Done():
		// Graceful shutdown: stop accepting, let in-flight queries drain
		// within the grace period, then cancel whatever is left — the
		// context plumbing stops their scans between chunks.
		fmt.Fprintln(os.Stderr, "nodbd: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			httpSrv.Close()
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "nodbd: %v\n", err)
			os.Exit(1)
		}
	}
}

type coordinatorOpts struct {
	addr           string
	shards         string
	shardTimeout   time.Duration
	shardRetries   int
	retryBackoff   time.Duration
	synopsisTTL    time.Duration
	healthInterval time.Duration
	partialResults bool
	maxInFlight    int
	timeout        time.Duration
	maxTimeout     time.Duration
	grace          time.Duration
	tenants        *qos.Registry
}

// runCoordinator serves the scatter-gather coordinator: no local data,
// just fan-out, merge, and the same HTTP surface as a single node.
func runCoordinator(opts coordinatorOpts) {
	var addrs []string
	for _, a := range strings.Split(opts.shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "nodbd: -coordinator requires -shards host1,host2,...")
		os.Exit(2)
	}
	if len(flag.Args()) > 0 {
		fmt.Fprintln(os.Stderr, "nodbd: coordinator mode takes no name=path arguments; attach files on the shards")
		os.Exit(2)
	}

	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Shards:         addrs,
		ShardTimeout:   opts.shardTimeout,
		Retries:        opts.shardRetries,
		RetryBackoff:   opts.retryBackoff,
		SynopsisTTL:    opts.synopsisTTL,
		HealthInterval: opts.healthInterval,
		AllowPartial:   opts.partialResults,
		MaxInFlight:    opts.maxInFlight,
		DefaultTimeout: opts.timeout,
		MaxTimeout:     opts.maxTimeout,
		Tenants:        opts.tenants,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nodbd: %v\n", err)
		os.Exit(2)
	}
	defer coord.Close()

	httpSrv := &http.Server{
		Addr:              opts.addr,
		Handler:           coord,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("nodbd coordinator listening on %s (shards=%d, partial-results=%v)\n",
		opts.addr, len(addrs), opts.partialResults)

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "nodbd: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), opts.grace)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			httpSrv.Close()
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "nodbd: %v\n", err)
			os.Exit(1)
		}
	}
}
