// Command ssload is a concurrent load driver for the smoothscan
// engine: it bulk-loads a synthetic table, then hammers it from many
// client goroutines, reporting aggregate tuples/s, queries/s and
// p50/p99 query latency. It is the inter-query counterpart of
// ScanOptions.Parallelism (intra-query): both can be combined.
//
// Usage:
//
//	ssload -rows 200000 -clients 8 -queries 64 -selectivity 0.01
//	ssload -clients 4 -parallelism 4 -ordered
//	ssload -bench parallel -json BENCH_parallel.json
//	ssload -chaos -clients 4 -queries 64
//	ssload -cache -clients 4 -queries 256
//	ssload -addr 127.0.0.1:7744 -clients 8 -queries 64
//
// By default the clients share one in-process DB. With -addr the same
// workload runs against a remote ssserver instead: every client
// goroutine owns one ssclient connection, queries travel the wire
// protocol, and the reported latencies are client-observed (dial,
// frame round trips and result streaming included), directly
// comparable to the in-process numbers from the same flags. The
// -prepare and -chaos modes work remotely too — statements are
// prepared per session, and chaos schedules are installed through the
// fault-administration frame (the server must run with -fault-admin).
// A client whose connection is lost re-dials transparently; reconnect
// counts land in the JSON output next to the retry counters.
//
// The -bench parallel mode runs the fixed P=1/2/4/8 intra-query sweep
// of BenchmarkParallelSmoothScan and writes machine-readable JSON, so
// the parallel-scan perf trajectory can be tracked across commits.
// Wall-clock numbers depend on the host (see the reported cpus);
// simulated cost is deterministic up to random/sequential
// classification differences between worker interleavings.
//
// The -cache mode exercises the semantic result-cache tier
// (Options.ResultCacheBytes; see docs/CACHING.md): a Zipf-skewed
// repeat-query workload runs once with the tier off and once with it
// on — reporting the hit rate and the p50/p99 latency delta — then a
// third time with rows being inserted mid-run, so the write-driven
// invalidation churn (every Insert bumps the table epoch and kills the
// entries that read it) shows up in the counters. The cached run's
// digest must match the tier-off control's exactly: rows served from
// the cache are bit-identical to re-executed ones. Local modes only
// (with -addr the server side of the tier is the server's
// -result-cache-bytes flag); -shards is supported and exercises the
// coordinator-level tier above scatter-gather.
//
// The -chaos mode runs the workload once fault-free to record an
// order-independent result digest, then re-runs it under a sweep of
// injected fault schedules (transient failures, corrupted pages,
// latency spikes). Recovered runs must reproduce the oracle digest
// exactly; the sweep exits non-zero if any run diverged or errored.
//
// A client goroutine never aborts the whole load on a query error: it
// records the error (retrying transient faults a bounded number of
// times first) and moves on, so one poisoned query cannot hide the
// rest of the run. Per-client error and retry counts land in the JSON
// output. -require-clean turns any recorded error into a non-zero
// exit, for smoke tests that must not average failures away.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"smoothscan"
	"smoothscan/internal/loadgen"
	"smoothscan/ssclient"
)

func main() {
	var (
		rows        = flag.Int64("rows", 200_000, "table rows (10 int64 columns, like the paper's micro table); local modes only")
		domain      = flag.Int64("domain", 100_000, "indexed-column value domain (must match the server's with -addr)")
		clients     = flag.Int("clients", 4, "concurrent client goroutines")
		queries     = flag.Int("queries", 64, "total queries across all clients")
		selectivity = flag.Float64("selectivity", 0.01, "per-query selectivity (0..1]")
		parallelism = flag.Int("parallelism", 1, "ScanOptions.Parallelism per query")
		ordered     = flag.Bool("ordered", false, "request index-key-ordered output")
		policy      = flag.String("policy", "elastic", "morphing policy: elastic, greedy, si")
		path        = flag.String("path", "smooth", "access path: smooth, full, index, sort, switch")
		seed        = flag.Int64("seed", 42, "generator seed")
		pool        = flag.Int("pool", 2048, "buffer pool pages; local modes only")
		bench       = flag.String("bench", "", "run a fixed benchmark instead: 'parallel' (P=1/2/4/8 sweep)")
		jsonOut     = flag.String("json", "", "also write results as JSON to this file")
		timeout     = flag.Duration("timeout", 0, "deadline for the whole load; in-flight queries are cancelled through their context")
		prepare     = flag.Bool("prepare", false, "prepared-statement mode: clients bind and execute a prepared Stmt per query; reports plan reuse and the latency delta vs an ad-hoc control run")
		adhoc       = flag.Bool("adhoc", true, "with -prepare: run the ad-hoc control load first (disable to measure only the prepared run)")
		chaos       = flag.Bool("chaos", false, "chaos mode: run a fault-free oracle load, then re-run under injected fault schedules and verify the result digests match")
		addr        = flag.String("addr", "", "run against a remote ssserver at this address instead of in-process (the server owns the data; use matching -domain/-seed flags on both sides)")
		shards      = flag.Int("shards", 0, "range-partition the table across N in-process shards and run the load through the scatter-gather engine (0 = unsharded); local modes only")
		shardAddrs  = flag.String("shard-addrs", "", "comma-separated ssserver addresses, one per shard (each server started with -shard-id I -shard-count N and matching -rows/-domain/-seed); runs the load through the scatter-gather engine with remote shard drivers")
		cache       = flag.Bool("cache", false, "result-cache mode: a Zipf-skewed repeat-query workload with the tier on vs off (hit rate, p50/p99 delta), then re-run under interleaved Inserts to show invalidation churn; local modes only")
		rcBytes     = flag.Int64("result-cache-bytes", 0, "result-cache tier byte budget for local modes (0 disables the tier; -cache mode defaults it to 16 MiB)")
		rcTTL       = flag.Duration("result-cache-ttl", 0, "result-cache entry time-to-live for local modes (0 = no expiry)")
		clean       = flag.Bool("require-clean", false, "exit non-zero if any query failed")
	)
	flag.Parse()

	if *shards < 0 {
		fatal(fmt.Errorf("-shards %d (want >= 0)", *shards))
	}
	if *shards > 0 && *addr != "" {
		fatal(fmt.Errorf("-shards needs the in-process engine (drop -addr)"))
	}
	if *shards > 0 && *bench != "" {
		fatal(fmt.Errorf("-shards does not combine with -bench"))
	}
	if *shardAddrs != "" && (*addr != "" || *shards > 0 || *bench != "") {
		fatal(fmt.Errorf("-shard-addrs does not combine with -addr, -shards or -bench"))
	}
	if *cache {
		if *addr != "" || *shardAddrs != "" {
			fatal(fmt.Errorf("-cache needs the in-process engine (the server's -result-cache-bytes owns the tier remotely)"))
		}
		if *bench != "" || *chaos || *prepare {
			fatal(fmt.Errorf("-cache does not combine with -bench, -chaos or -prepare"))
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *bench != "" {
		if *addr != "" {
			fatal(fmt.Errorf("-bench needs the in-process engine (drop -addr)"))
		}
		if *bench != "parallel" {
			fatal(fmt.Errorf("unknown -bench %q (known: parallel)", *bench))
		}
		db, err := loadgen.BuildDB(*rows, *domain, *seed, smoothscan.Options{PoolPages: *pool})
		if err != nil {
			fatal(err)
		}
		if err := benchParallel(db, *rows, *domain, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}

	if *cache {
		sopts, err := scanOptions(*path, *policy, *ordered, *parallelism)
		if err != nil {
			fatal(err)
		}
		ccfg := cacheCompareConfig{
			rows: *rows, domain: *domain, seed: *seed,
			pool: *pool, shards: *shards,
			budget: *rcBytes, ttl: *rcTTL,
			load: loadConfig{
				clients:     *clients,
				queries:     *queries,
				selectivity: *selectivity,
				domain:      *domain,
				seed:        *seed,
				opts:        sopts,
			},
		}
		report, err := runCacheCompare(ctx, ccfg, *jsonOut)
		if err != nil {
			fatal(err)
		}
		if *clean && report.errors() > 0 {
			fatal(fmt.Errorf("-require-clean: %d queries failed", report.errors()))
		}
		return
	}

	var h harness
	switch {
	case *shardAddrs != "":
		rh, err := newRemoteShardedHarness(strings.Split(*shardAddrs, ","), *domain)
		if err != nil {
			fatal(fmt.Errorf("shard-addrs %s: %w", *shardAddrs, err))
		}
		h = rh
	case *addr != "":
		rh, err := newRemoteHarness(*addr)
		if err != nil {
			fatal(fmt.Errorf("dial %s: %w", *addr, err))
		}
		h = rh
	case *shards > 0:
		s, err := loadgen.BuildShardedDB(*rows, *domain, *seed, *shards,
			smoothscan.Options{PoolPages: *pool, ResultCacheBytes: *rcBytes, ResultCacheTTL: *rcTTL})
		if err != nil {
			fatal(err)
		}
		h = &shardedHarness{s: s}
	default:
		db, err := loadgen.BuildDB(*rows, *domain, *seed,
			smoothscan.Options{PoolPages: *pool, ResultCacheBytes: *rcBytes, ResultCacheTTL: *rcTTL})
		if err != nil {
			fatal(err)
		}
		h = &localHarness{db: db}
	}
	defer h.close()

	opts, err := scanOptions(*path, *policy, *ordered, *parallelism)
	if err != nil {
		fatal(err)
	}
	cfg := loadConfig{
		clients:     *clients,
		queries:     *queries,
		selectivity: *selectivity,
		domain:      *domain,
		seed:        *seed,
		opts:        opts,
	}

	if *chaos {
		// Chaos is clean by construction: any unrecovered error fails it.
		if err := runChaos(ctx, h, cfg, *seed, *jsonOut); err != nil {
			fatal(err)
		}
		return
	}

	if *prepare {
		report, err := runPrepared(ctx, h, cfg, *adhoc, *jsonOut)
		if err != nil {
			fatal(err)
		}
		errors := report.Prepared.Errors
		if report.AdHoc != nil {
			errors += report.AdHoc.Errors
		}
		if *clean && errors > 0 {
			fatal(fmt.Errorf("-require-clean: %d queries failed", errors))
		}
		return
	}

	res, err := runLoad(ctx, h, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ssload: %d clients x %d queries, sel=%.4f%%, path=%s, parallelism=%d, ordered=%v, mode=%s, cpus=%d\n",
		*clients, *queries, *selectivity*100, *path, *parallelism, *ordered, h.mode(), runtime.NumCPU())
	res.print(os.Stdout)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, res); err != nil {
			fatal(err)
		}
	}
	if *clean && res.Errors > 0 {
		fatal(fmt.Errorf("-require-clean: %d queries failed", res.Errors))
	}
}

// prepareReport is the -prepare JSON document: the prepared run, the
// optional ad-hoc control, the p50/p99 latency deltas (prepared minus
// ad-hoc; negative = prepared faster) and the plan-cache traffic
// attributed per run (counter deltas around each run — Stmt.Run binds
// its own template, so the prepared delta only shows the Prepare
// misses: one for a local shared Stmt, one per session remotely with
// the rest hitting the server's shared plan cache).
type prepareReport struct {
	AdHoc             *loadResult                `json:"adhoc,omitempty"`
	Prepared          loadResult                 `json:"prepared"`
	P50DeltaMS        float64                    `json:"p50_delta_ms"`
	P99DeltaMS        float64                    `json:"p99_delta_ms"`
	PlanCacheAdHoc    *smoothscan.PlanCacheStats `json:"plan_cache_adhoc,omitempty"`
	PlanCachePrepared smoothscan.PlanCacheStats  `json:"plan_cache_prepared"`
}

// cacheDelta attributes plan-cache counter traffic to one run.
func cacheDelta(before, after smoothscan.PlanCacheStats) smoothscan.PlanCacheStats {
	return smoothscan.PlanCacheStats{
		Hits:      after.Hits - before.Hits,
		Misses:    after.Misses - before.Misses,
		Evictions: after.Evictions - before.Evictions,
		Entries:   after.Entries,
		Capacity:  after.Capacity,
	}
}

// runPrepared runs the -prepare comparison: an ad-hoc control load
// (every query compiled through the builder — transparently sharing
// templates via the DB plan cache), then the same workload through
// prepared statements bound per query — one Stmt shared by every
// client locally, one Stmt per session remotely.
func runPrepared(ctx context.Context, h harness, cfg loadConfig, control bool, jsonOut string) (prepareReport, error) {
	report := prepareReport{}

	if control {
		before, err := h.planCache()
		if err != nil {
			return report, err
		}
		res, err := runLoad(ctx, h, cfg)
		if err != nil {
			return report, err
		}
		after, err := h.planCache()
		if err != nil {
			return report, err
		}
		report.AdHoc = &res
		delta := cacheDelta(before, after)
		report.PlanCacheAdHoc = &delta
		fmt.Printf("ssload -prepare: ad-hoc control (%d clients x %d queries, mode=%s, cpus=%d)\n",
			cfg.clients, cfg.queries, h.mode(), runtime.NumCPU())
		res.print(os.Stdout)
		fmt.Printf("  plan cache %d hits / %d misses this run\n", delta.Hits, delta.Misses)
	}

	before, err := h.planCache()
	if err != nil {
		return report, err
	}
	pcfg := cfg
	pcfg.prepared = true
	res, err := runLoad(ctx, h, pcfg)
	if err != nil {
		return report, err
	}
	after, err := h.planCache()
	if err != nil {
		return report, err
	}
	report.Prepared = res
	report.PlanCachePrepared = cacheDelta(before, after)
	fmt.Printf("ssload -prepare: prepared Stmt (%d clients x %d queries, mode=%s)\n",
		cfg.clients, cfg.queries, h.mode())
	res.print(os.Stdout)
	fmt.Printf("  plan cache %d hits / %d misses this run (Stmt binds its own template; expect only the Prepare traffic)\n",
		report.PlanCachePrepared.Hits, report.PlanCachePrepared.Misses)

	if report.AdHoc != nil {
		report.P50DeltaMS = res.P50MS - report.AdHoc.P50MS
		report.P99DeltaMS = res.P99MS - report.AdHoc.P99MS
		fmt.Printf("  delta      p50 %+.3f ms, p99 %+.3f ms vs ad-hoc (negative = prepared faster)\n",
			report.P50DeltaMS, report.P99DeltaMS)
	}

	if jsonOut != "" {
		if err := writeJSON(jsonOut, report); err != nil {
			return report, err
		}
	}
	return report, nil
}

// cacheTemplateCount is the -cache mode's predicate-range pool size:
// enough distinct shapes that the tail stays cold, few enough that the
// Zipf head repeats within even a small -queries budget.
const cacheTemplateCount = 32

// cacheCompareConfig carries the -cache mode's build and load knobs.
type cacheCompareConfig struct {
	rows, domain, seed int64
	pool, shards       int
	// budget/ttl configure the cached backend's result-cache tier
	// (budget 0 defaults to 16 MiB; the control backend runs tier-off).
	budget int64
	ttl    time.Duration
	load   loadConfig
}

// cacheReport is the -cache JSON document: the tier-off control run,
// the tier-on run of the identical workload (same Zipf range stream),
// their p50/p99 deltas, and a third tier-on run under interleaved
// Inserts showing the write-driven invalidation churn.
type cacheReport struct {
	Control    loadResult `json:"control"`
	Cached     loadResult `json:"cached"`
	P50DeltaMS float64    `json:"p50_delta_ms"`
	P99DeltaMS float64    `json:"p99_delta_ms"`
	// DigestMatch reports whether the cached run reproduced the control
	// run's result digest — served-from-cache rows must be bit-identical
	// to re-executed ones. (The churn run's digest is not comparable:
	// its Inserts land inside queried ranges by design.)
	DigestMatch  bool       `json:"digest_match"`
	Churn        loadResult `json:"churn"`
	ChurnInserts int64      `json:"churn_inserts"`
}

func (r cacheReport) errors() int {
	return r.Control.Errors + r.Cached.Errors + r.Churn.Errors
}

// runCacheCompare runs the -cache comparison. Three runs of the same
// Zipf-skewed repeat-query workload: tier off (control), tier on (the
// hit-rate and latency-delta measurement), and tier on with a
// background writer inserting rows mid-run — every Insert bumps the
// table's epoch, so hot entries keep getting invalidated and re-cached,
// which is the churn the third run's counters make visible.
func runCacheCompare(ctx context.Context, ccfg cacheCompareConfig, jsonOut string) (cacheReport, error) {
	report := cacheReport{}
	cfg := ccfg.load
	cfg.cacheTemplates = cacheTemplateCount
	cfg.reportCache = true

	budget := ccfg.budget
	if budget <= 0 {
		budget = 16 << 20
	}
	// build constructs one backend (sharded when -shards is set) with
	// the tier on or off, returning its harness and an insert closure
	// for the churn writer.
	build := func(tierOn bool) (harness, func(vals ...int64) error, error) {
		opts := smoothscan.Options{PoolPages: ccfg.pool}
		if tierOn {
			opts.ResultCacheBytes = budget
			opts.ResultCacheTTL = ccfg.ttl
		}
		if ccfg.shards > 0 {
			s, err := loadgen.BuildShardedDB(ccfg.rows, ccfg.domain, ccfg.seed, ccfg.shards, opts)
			if err != nil {
				return nil, nil, err
			}
			return &shardedHarness{s: s}, func(vals ...int64) error {
				return s.Insert(loadgen.Table, vals...)
			}, nil
		}
		db, err := loadgen.BuildDB(ccfg.rows, ccfg.domain, ccfg.seed, opts)
		if err != nil {
			return nil, nil, err
		}
		return &localHarness{db: db}, func(vals ...int64) error {
			return db.Insert(loadgen.Table, vals...)
		}, nil
	}

	control, _, err := build(false)
	if err != nil {
		return report, err
	}
	defer control.close()
	res, err := runLoad(ctx, control, cfg)
	if err != nil {
		return report, err
	}
	report.Control = res
	fmt.Printf("ssload -cache: control, tier off (%d clients x %d queries over %d Zipf ranges, mode=%s, cpus=%d)\n",
		cfg.clients, cfg.queries, cacheTemplateCount, control.mode(), runtime.NumCPU())
	res.print(os.Stdout)

	cached, insert, err := build(true)
	if err != nil {
		return report, err
	}
	defer cached.close()
	res, err = runLoad(ctx, cached, cfg)
	if err != nil {
		return report, err
	}
	report.Cached = res
	report.P50DeltaMS = res.P50MS - report.Control.P50MS
	report.P99DeltaMS = res.P99MS - report.Control.P99MS
	report.DigestMatch = res.Digest == report.Control.Digest && res.Tuples == report.Control.Tuples
	fmt.Printf("ssload -cache: tier on, %d byte budget (same workload)\n", budget)
	res.print(os.Stdout)
	fmt.Printf("  delta      p50 %+.3f ms, p99 %+.3f ms vs tier-off control (negative = cached faster)\n",
		report.P50DeltaMS, report.P99DeltaMS)
	if !report.DigestMatch {
		return report, fmt.Errorf("cache: cached run diverged from control (digest %016x vs %016x, %d vs %d tuples)",
			res.Digest, report.Control.Digest, res.Tuples, report.Control.Tuples)
	}
	fmt.Println("  digest     matches the tier-off control (cached rows are bit-identical)")

	// Churn run: the same workload on the same cached backend while a
	// writer inserts rows. Every Insert bumps the table epoch, so each
	// hot entry serves only until the next write lands, then misses,
	// re-executes and re-caches — invalidation churn under load, with
	// pre-write entries never served (the -race tests pin that; here the
	// counters make it visible at workload scale).
	var (
		churnInserts int64
		stopChurn    = make(chan struct{})
		churnDone    = make(chan error, 1)
	)
	go func() {
		wrng := rand.New(rand.NewSource(ccfg.seed * 104729))
		vals := make([]int64, 10)
		id := ccfg.rows
		for {
			select {
			case <-stopChurn:
				churnDone <- nil
				return
			default:
			}
			vals[0] = id
			id++
			for c := 1; c < len(vals); c++ {
				vals[c] = wrng.Int63n(ccfg.domain)
			}
			if err := insert(vals...); err != nil {
				churnDone <- err
				return
			}
			churnInserts++
			time.Sleep(500 * time.Microsecond)
		}
	}()
	res, err = runLoad(ctx, cached, cfg)
	close(stopChurn)
	werr := <-churnDone
	if err == nil {
		err = werr
	}
	if err != nil {
		return report, err
	}
	report.Churn = res
	report.ChurnInserts = churnInserts
	fmt.Printf("ssload -cache: tier on under churn (%d rows inserted mid-run)\n", churnInserts)
	res.print(os.Stdout)

	if jsonOut != "" {
		if err := writeJSON(jsonOut, report); err != nil {
			return report, err
		}
	}
	return report, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssload:", err)
	os.Exit(1)
}

func scanOptions(path, policy string, ordered bool, parallelism int) (smoothscan.ScanOptions, error) {
	opts := smoothscan.ScanOptions{Ordered: ordered, Parallelism: parallelism}
	switch path {
	case "smooth":
		opts.Path = smoothscan.PathSmooth
	case "full":
		opts.Path = smoothscan.PathFull
	case "index":
		opts.Path = smoothscan.PathIndex
	case "sort":
		opts.Path = smoothscan.PathSort
	case "switch":
		opts.Path = smoothscan.PathSwitch
	default:
		return opts, fmt.Errorf("unknown path %q", path)
	}
	switch policy {
	case "elastic":
		opts.Policy = smoothscan.Elastic
	case "greedy":
		opts.Policy = smoothscan.Greedy
	case "si":
		opts.Policy = smoothscan.SelectivityIncrease
	default:
		return opts, fmt.Errorf("unknown policy %q", policy)
	}
	return opts, nil
}

type loadConfig struct {
	clients     int
	queries     int
	selectivity float64
	domain      int64
	seed        int64
	opts        smoothscan.ScanOptions
	// prepared routes every query through a prepared statement (bound
	// per query) instead of the ad-hoc builder.
	prepared bool
	// retryFaults is the number of application-level re-runs a client
	// gives a query that failed with a transient injected fault, on top
	// of the engine's own bounded page retry. Chaos mode sets it so a
	// recoverable schedule cannot strand a query.
	retryFaults int
	// cacheTemplates > 0 replaces the uniform random predicate ranges
	// with a Zipf-skewed draw over this many precomputed ranges, so the
	// workload repeats queries the way a result cache wants: a few hot
	// shapes dominate, a long tail stays cold. The ranges are derived
	// from seed, so control and cached runs see the same stream.
	cacheTemplates int
	// reportCache attaches the result-cache tier's counter deltas and
	// the per-query hit rate to the loadResult.
	reportCache bool
}

// queryResult is one successful query execution; a failed attempt's
// partial rows are discarded wholesale so a retried query cannot
// double-count into the digest.
type queryResult struct {
	digest   uint64
	tuples   int64
	reused   bool
	cacheHit bool
	retries  int64
	faults   int64
}

// runner executes one client goroutine's queries against a backend;
// it is owned by that goroutine and never shared.
type runner interface {
	runQuery(ctx context.Context, lo, hi int64) (queryResult, error)
	// reconnects reports how many times the runner had to re-dial a
	// lost connection (always 0 for the in-process backend).
	reconnects() int
	close()
}

// harness abstracts where the workload runs: the in-process engine or
// a remote ssserver over the wire protocol. The load loop, the
// latency accounting and the digest are identical either way — that
// symmetry is what makes local and remote numbers comparable.
type harness interface {
	mode() string
	// mark starts a measurement window: the local backend cold-starts
	// the cache and zeroes device stats; the remote backend snapshots
	// the server counters so simCost can report a delta.
	mark() error
	// simCost is the simulated device cost attributed to the window
	// opened by mark.
	simCost() (float64, error)
	planCache() (smoothscan.PlanCacheStats, error)
	// resultCache snapshots the result-cache tier's counters: the
	// query-boundary tier(s) the backend owns, summed across shards or
	// nodes. All zero when the tier is disabled.
	resultCache() (smoothscan.ResultCacheStats, error)
	newRunner(cfg loadConfig, client int) (runner, error)
	// setFault installs a fault-injection schedule (nil clears it).
	setFault(seed int64, rule *smoothscan.FaultRule) error
	close()
}

// loadTemplate is the workload's one query shape, composed through
// the Engine interface so every backend — in-process, sharded,
// remote — compiles exactly the same builder calls.
func loadTemplate(e smoothscan.Engine, opts smoothscan.ScanOptions) smoothscan.Builder {
	return e.Table(loadgen.Table).
		Where(loadgen.IndexedCol, smoothscan.Between(smoothscan.Param("lo"), smoothscan.Param("hi"))).
		WithOptions(opts)
}

// engineRunner is the single runner for every backend: it drives a
// smoothscan.Engine and drains the uniform Cursor, so the measured
// query path is literally the same code local and remote. Only the
// remote backends set redial (an in-process engine cannot lose its
// connection).
type engineRunner struct {
	cfg  loadConfig
	eng  smoothscan.Engine
	stmt smoothscan.PreparedQuery
	// ownsEngine: close eng with the runner (per-client remote
	// sessions); shared engines are closed by their harness.
	ownsEngine bool
	// broken reports whether the current engine's connection is dead;
	// redial replaces it (and the prepared statement). Both nil for
	// in-process engines.
	broken func(smoothscan.Engine) bool
	redial func() (smoothscan.Engine, smoothscan.PreparedQuery, error)
	recon  int
}

func (r *engineRunner) runQuery(ctx context.Context, lo, hi int64) (queryResult, error) {
	var qr queryResult
	if r.broken != nil && r.broken(r.eng) {
		// Transparent re-dial on a lost connection; the count lands in
		// the per-client JSON so flapping is visible, not averaged away.
		eng, stmt, err := r.redial()
		if err != nil {
			return qr, err
		}
		r.eng, r.stmt = eng, stmt
		r.recon++
	}
	var cur smoothscan.Cursor
	var err error
	if r.cfg.prepared {
		cur, err = r.stmt.Run(ctx, smoothscan.Bind{"lo": lo, "hi": hi})
	} else {
		cur, err = r.eng.Table(loadgen.Table).
			Where(loadgen.IndexedCol, smoothscan.Between(lo, hi)).
			WithOptions(r.cfg.opts).
			Run(ctx)
	}
	if err != nil {
		return qr, err
	}
	for cur.Next() {
		qr.tuples++
		qr.digest += rowHash(cur.Row())
	}
	err = cur.Err()
	if cerr := cur.Close(); err == nil {
		err = cerr
	}
	// ExecStats is complete after the drain on every backend (a remote
	// cursor's statistics arrive with the server's closing summary).
	st := cur.ExecStats()
	qr.reused = st.PlanCacheHit
	qr.cacheHit = st.ResultCache.Hit
	qr.retries = st.Retries
	qr.faults = st.FaultsSeen
	return qr, err
}

func (r *engineRunner) reconnects() int { return r.recon }

func (r *engineRunner) close() {
	if r.stmt != nil && r.ownsEngine {
		r.stmt.Close()
	}
	if r.ownsEngine {
		r.eng.Close()
	}
}

// localHarness runs the workload against an in-process DB shared by
// all clients.
type localHarness struct {
	db   *smoothscan.DB
	stmt smoothscan.PreparedQuery // shared prepared statement, created lazily
}

func (h *localHarness) mode() string { return "local" }

func (h *localHarness) mark() error {
	if err := h.db.ColdCache(); err != nil {
		return err
	}
	return h.db.ResetStats()
}

func (h *localHarness) simCost() (float64, error) { return h.db.Stats().Time(), nil }

func (h *localHarness) planCache() (smoothscan.PlanCacheStats, error) {
	return h.db.PlanCacheStats(), nil
}

func (h *localHarness) resultCache() (smoothscan.ResultCacheStats, error) {
	return h.db.ResultCacheStats(), nil
}

func (h *localHarness) newRunner(cfg loadConfig, _ int) (runner, error) {
	if cfg.prepared && h.stmt == nil {
		stmt, err := h.db.PrepareQuery(loadTemplate(h.db, cfg.opts))
		if err != nil {
			return nil, err
		}
		h.stmt = stmt
	}
	return &engineRunner{cfg: cfg, eng: h.db, stmt: h.stmt}, nil
}

func (h *localHarness) setFault(seed int64, rule *smoothscan.FaultRule) error {
	if rule == nil {
		h.db.SetFaultPolicy(nil)
		return nil
	}
	h.db.SetFaultPolicy(smoothscan.NewFaultPolicy(seed, *rule))
	return nil
}

func (h *localHarness) close() {}

// shardedHarness runs the workload against an in-process ShardedDB:
// the same query surface, scattered to the owning shards and gathered
// through the exchange. Digests stay comparable to the unsharded
// harness because the row stream (and thus every predicate's result
// multiset) is identical — only the placement differs.
type shardedHarness struct {
	s    *smoothscan.ShardedDB
	stmt smoothscan.PreparedQuery // shared prepared statement, created lazily
}

func (h *shardedHarness) mode() string { return fmt.Sprintf("sharded[%d]", h.s.NumShards()) }

func (h *shardedHarness) mark() error {
	if err := h.s.ColdCache(); err != nil {
		return err
	}
	return h.s.ResetStats()
}

func (h *shardedHarness) simCost() (float64, error) { return h.s.Stats().Time(), nil }

func (h *shardedHarness) planCache() (smoothscan.PlanCacheStats, error) {
	// Each shard owns a plan cache; the run-level counters are their sum
	// (sizing fields are per shard and reported from shard 0).
	var total smoothscan.PlanCacheStats
	for i := 0; i < h.s.NumShards(); i++ {
		st := h.s.Shard(i).PlanCacheStats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Evictions += st.Evictions
		if i == 0 {
			total.Entries, total.Capacity = st.Entries, st.Capacity
		}
	}
	return total, nil
}

func (h *shardedHarness) resultCache() (smoothscan.ResultCacheStats, error) {
	// The coordinator tier serves whole sharded queries; each shard's
	// own tier would only see direct single-shard executions. Both are
	// this backend's cache traffic, so the counters are their sum
	// (sizing fields stay the coordinator's).
	total := h.s.ResultCacheStats()
	for i := 0; i < h.s.NumShards(); i++ {
		st := h.s.Shard(i).ResultCacheStats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Stores += st.Stores
		total.StoreSkips += st.StoreSkips
		total.InvalidatedStale += st.InvalidatedStale
		total.Evicted += st.Evicted
		total.Expired += st.Expired
		total.Entries += st.Entries
		total.Bytes += st.Bytes
	}
	return total, nil
}

func (h *shardedHarness) newRunner(cfg loadConfig, _ int) (runner, error) {
	if cfg.prepared && h.stmt == nil {
		stmt, err := h.s.PrepareQuery(loadTemplate(h.s, cfg.opts))
		if err != nil {
			return nil, err
		}
		h.stmt = stmt
	}
	return &engineRunner{cfg: cfg, eng: h.s, stmt: h.stmt}, nil
}

func (h *shardedHarness) setFault(seed int64, rule *smoothscan.FaultRule) error {
	for i := 0; i < h.s.NumShards(); i++ {
		if rule == nil {
			h.s.Shard(i).SetFaultPolicy(nil)
			continue
		}
		// One independent policy per shard device, same seed: decisions
		// stay deterministic per (shard, space, page, attempt).
		h.s.Shard(i).SetFaultPolicy(smoothscan.NewFaultPolicy(seed, *rule))
	}
	return nil
}

func (h *shardedHarness) close() {}

func (h *shardedHarness) shardMode() string { return "in-process" }

// shardBalance reports the per-shard row and device-cost balance of a
// sharded run (see loadResult.Shards).
func (h *shardedHarness) shardBalance() []shardBalance {
	rows, err := h.s.ShardRows(loadgen.Table)
	if err != nil {
		return nil
	}
	per := h.s.ShardIOStats()
	out := make([]shardBalance, len(per))
	for i := range per {
		out[i] = shardBalance{
			Shard:     i,
			Rows:      rows[i],
			SimCost:   per[i].Time(),
			PagesRead: per[i].PagesRead,
		}
	}
	return out
}

// remoteHarness runs the workload against an ssserver: one control
// connection for stats and fault administration, plus one connection
// per client goroutine (an ssclient.Client is single-goroutine by
// contract).
type remoteHarness struct {
	addr string
	ctl  *ssclient.Client
	base ssclient.ServerStats
	// noCold is set once the server refuses cache administration;
	// later windows measure warm instead of failing the run.
	noCold bool
}

func newRemoteHarness(addr string) (*remoteHarness, error) {
	ctl, err := ssclient.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &remoteHarness{addr: addr, ctl: ctl}, nil
}

func (h *remoteHarness) mode() string { return "remote" }

func (h *remoteHarness) mark() error {
	if !h.noCold {
		// Match the local harness's cold-start semantics when the
		// server allows it (ssserver -fault-admin); a refusal just
		// means this window measures a warm pool.
		if err := h.ctl.ColdCache(); err != nil {
			var re *ssclient.RemoteError
			if !errors.As(err, &re) {
				return err
			}
			h.noCold = true
		}
	}
	st, err := h.ctl.ServerStats()
	if err != nil {
		return err
	}
	h.base = st
	return nil
}

func (h *remoteHarness) simCost() (float64, error) {
	st, err := h.ctl.ServerStats()
	if err != nil {
		return 0, err
	}
	return st.DeviceSimCost - h.base.DeviceSimCost, nil
}

func (h *remoteHarness) planCache() (smoothscan.PlanCacheStats, error) {
	st, err := h.ctl.ServerStats()
	if err != nil {
		return smoothscan.PlanCacheStats{}, err
	}
	// The wire stats carry the hit/miss counters; sizing fields stay
	// zero, and cacheDelta only reports differences anyway.
	return smoothscan.PlanCacheStats{
		Hits:   uint64(st.PlanCacheHits),
		Misses: uint64(st.PlanCacheMisses),
	}, nil
}

func (h *remoteHarness) resultCache() (smoothscan.ResultCacheStats, error) {
	st, err := h.ctl.ServerStats()
	if err != nil {
		return smoothscan.ResultCacheStats{}, err
	}
	// The wire stats carry the counters a comparison needs; the sizing
	// fields the server does not export stay zero.
	return smoothscan.ResultCacheStats{
		Hits:             st.ResultCacheHits,
		Misses:           st.ResultCacheMisses,
		InvalidatedStale: st.ResultCacheInvalidated,
		Entries:          int(st.ResultCacheEntries),
		Bytes:            st.ResultCacheBytes,
	}, nil
}

func (h *remoteHarness) newRunner(cfg loadConfig, _ int) (runner, error) {
	// Each client dials a fresh session; in prepared mode it prepares
	// this session's statement (handles are per session, so each
	// client owns one; the compiled template is still shared through
	// the server's plan cache).
	redial := func() (smoothscan.Engine, smoothscan.PreparedQuery, error) {
		c, err := ssclient.Dial(h.addr)
		if err != nil {
			return nil, nil, err
		}
		var stmt smoothscan.PreparedQuery
		if cfg.prepared {
			stmt, err = c.PrepareQuery(loadTemplate(c, cfg.opts))
			if err != nil {
				c.Close()
				return nil, nil, err
			}
		}
		return c, stmt, nil
	}
	eng, stmt, err := redial()
	if err != nil {
		return nil, err
	}
	return &engineRunner{
		cfg:        cfg,
		eng:        eng,
		stmt:       stmt,
		ownsEngine: true,
		broken:     func(e smoothscan.Engine) bool { return e.(*ssclient.Conn).Broken() },
		redial:     redial,
	}, nil
}

func (h *remoteHarness) setFault(seed int64, rule *smoothscan.FaultRule) error {
	if rule == nil {
		return h.ctl.ClearFaultPolicy()
	}
	err := h.ctl.SetFaultPolicy(seed, ssclient.FaultRule{
		Kind:      rule.Kind,
		Rate:      rule.Rate,
		ExtraCost: rule.ExtraCost,
	})
	if err != nil {
		return fmt.Errorf("%w (remote fault schedules need ssserver -fault-admin)", err)
	}
	return nil
}

func (h *remoteHarness) close() { h.ctl.Close() }

// remoteShardedHarness runs the workload through the scatter-gather
// engine backed by remote shard drivers: one ssserver per shard, each
// serving its BuildShardSlice, gathered by an in-process coordinator.
// The query path is the shared engineRunner over the ShardedDB
// engine; this harness only adds per-node administration — one
// control connection per shard for stats snapshots and fault
// schedules (an ssclient session is single-goroutine, so the
// coordinator's own pooled connections cannot double as controls).
type remoteShardedHarness struct {
	s     *smoothscan.ShardedDB
	stmt  smoothscan.PreparedQuery // shared prepared statement, created lazily
	addrs []string
	ctls  []*ssclient.Client
	base  []ssclient.ServerStats
	// noCold is set once a server refuses cache administration; later
	// windows measure warm instead of failing the run.
	noCold bool
}

func newRemoteShardedHarness(addrs []string, domain int64) (*remoteShardedHarness, error) {
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
		if addrs[i] == "" {
			return nil, fmt.Errorf("empty shard address at position %d", i)
		}
	}
	placements := make([]smoothscan.Placement, len(addrs))
	for i, a := range addrs {
		placements[i] = smoothscan.Placement{Addr: a}
	}
	parts := map[string]smoothscan.Partitioning{
		loadgen.Table: loadgen.ShardParts(domain, len(addrs)),
	}
	s, err := smoothscan.OpenShardedRemote(placements, parts, smoothscan.Options{PoolPages: 64})
	if err != nil {
		return nil, err
	}
	h := &remoteShardedHarness{s: s, addrs: addrs, base: make([]ssclient.ServerStats, len(addrs))}
	for _, a := range addrs {
		ctl, err := ssclient.Dial(a)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("control dial %s: %w", a, err)
		}
		h.ctls = append(h.ctls, ctl)
	}
	return h, nil
}

func (h *remoteShardedHarness) mode() string {
	return fmt.Sprintf("remote-sharded[%d]", len(h.addrs))
}

func (h *remoteShardedHarness) mark() error {
	if !h.noCold {
		// ShardedDB.ColdCache forwards to every node; a refusal (no
		// -fault-admin on the servers) downgrades to warm windows.
		if err := h.s.ColdCache(); err != nil {
			var re *ssclient.RemoteError
			if !errors.As(err, &re) {
				return err
			}
			h.noCold = true
		}
	}
	for i, ctl := range h.ctls {
		st, err := ctl.ServerStats()
		if err != nil {
			return err
		}
		h.base[i] = st
	}
	return nil
}

func (h *remoteShardedHarness) simCost() (float64, error) {
	total := 0.0
	for i, ctl := range h.ctls {
		st, err := ctl.ServerStats()
		if err != nil {
			return 0, err
		}
		total += st.DeviceSimCost - h.base[i].DeviceSimCost
	}
	return total, nil
}

func (h *remoteShardedHarness) planCache() (smoothscan.PlanCacheStats, error) {
	var total smoothscan.PlanCacheStats
	for _, ctl := range h.ctls {
		st, err := ctl.ServerStats()
		if err != nil {
			return smoothscan.PlanCacheStats{}, err
		}
		total.Hits += uint64(st.PlanCacheHits)
		total.Misses += uint64(st.PlanCacheMisses)
	}
	return total, nil
}

func (h *remoteShardedHarness) resultCache() (smoothscan.ResultCacheStats, error) {
	// The coordinator's own tier plus each node's server-side tier.
	total := h.s.ResultCacheStats()
	for _, ctl := range h.ctls {
		st, err := ctl.ServerStats()
		if err != nil {
			return smoothscan.ResultCacheStats{}, err
		}
		total.Hits += st.ResultCacheHits
		total.Misses += st.ResultCacheMisses
		total.InvalidatedStale += st.ResultCacheInvalidated
		total.Entries += int(st.ResultCacheEntries)
		total.Bytes += st.ResultCacheBytes
	}
	return total, nil
}

func (h *remoteShardedHarness) newRunner(cfg loadConfig, _ int) (runner, error) {
	if cfg.prepared && h.stmt == nil {
		stmt, err := h.s.PrepareQuery(loadTemplate(h.s, cfg.opts))
		if err != nil {
			return nil, err
		}
		h.stmt = stmt
	}
	// The coordinator is safe for concurrent queries (each shard driver
	// pools its connections), so every client shares the one engine.
	return &engineRunner{cfg: cfg, eng: h.s, stmt: h.stmt}, nil
}

func (h *remoteShardedHarness) setFault(seed int64, rule *smoothscan.FaultRule) error {
	// One independent policy per shard node, same seed — the remote
	// mirror of shardedHarness.setFault.
	for _, ctl := range h.ctls {
		if rule == nil {
			if err := ctl.ClearFaultPolicy(); err != nil {
				return err
			}
			continue
		}
		err := ctl.SetFaultPolicy(seed, ssclient.FaultRule{
			Kind:      rule.Kind,
			Rate:      rule.Rate,
			ExtraCost: rule.ExtraCost,
		})
		if err != nil {
			return fmt.Errorf("%w (remote fault schedules need ssserver -fault-admin)", err)
		}
	}
	return nil
}

func (h *remoteShardedHarness) close() {
	for _, ctl := range h.ctls {
		ctl.Close()
	}
	h.s.Close()
}

// shardBalance reports each node's static row count and this window's
// simulated-cost delta. PagesRead stays zero: the server counters do
// not break pages out per window (per-query page counts do travel in
// ExecStats.Shards, but the load loop does not accumulate them).
func (h *remoteShardedHarness) shardBalance() []shardBalance {
	rows, err := h.s.ShardRows(loadgen.Table)
	if err != nil {
		return nil
	}
	out := make([]shardBalance, len(h.ctls))
	for i, ctl := range h.ctls {
		st, err := ctl.ServerStats()
		if err != nil {
			return nil
		}
		out[i] = shardBalance{
			Shard:   i,
			Rows:    rows[i],
			SimCost: st.DeviceSimCost - h.base[i].DeviceSimCost,
		}
	}
	return out
}

func (h *remoteShardedHarness) shardMode() string { return "remote" }

// clientStat is one client goroutine's tally, reported in the JSON
// output so a sick client is visible instead of averaged away.
type clientStat struct {
	Client  int `json:"client"`
	Queries int `json:"queries"`
	Errors  int `json:"errors"`
	// QueryRetries counts application-level query re-runs (see
	// loadConfig.retryFaults); Retries counts the engine's page-level
	// read retries inside this client's queries; Reconnects counts
	// re-dials of a lost remote connection.
	QueryRetries int    `json:"query_retries"`
	Retries      int64  `json:"retries"`
	FaultsSeen   int64  `json:"faults_seen"`
	Reconnects   int    `json:"reconnects,omitempty"`
	FirstError   string `json:"first_error,omitempty"`
}

// loadResult aggregates a load run; field names feed the JSON output.
type loadResult struct {
	Mode        string  `json:"mode"`
	Clients     int     `json:"clients"`
	Queries     int     `json:"queries"`
	Parallelism int     `json:"parallelism"`
	CPUs        int     `json:"cpus"`
	WallMS      float64 `json:"wall_ms"`
	Tuples      int64   `json:"tuples"`
	TuplesPerS  float64 `json:"tuples_per_s"`
	QueriesPerS float64 `json:"queries_per_s"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	MaxMS       float64 `json:"max_ms"`
	SimCost     float64 `json:"simcost"`
	// PlanReuseRate is the fraction of queries that reused a compiled
	// plan template (ExecStats.PlanCacheHit): the DB plan cache for
	// ad-hoc loads, the Stmt's template for prepared loads.
	PlanReuseRate float64 `json:"plan_reuse_rate"`
	// Errors counts queries that still failed after any application
	// retries; failed queries are excluded from Queries, the latency
	// percentiles, Tuples and Digest.
	Errors int `json:"errors"`
	// QueryRetries / Retries / FaultsSeen / Reconnects aggregate the
	// per-client fault counters (see clientStat).
	QueryRetries int   `json:"query_retries"`
	Retries      int64 `json:"retries"`
	FaultsSeen   int64 `json:"faults_seen"`
	Reconnects   int   `json:"reconnects"`
	// ShardMode labels a sharded run's topology: "in-process" for
	// -shards N, "remote" for -shard-addrs; omitted for unsharded
	// runs. Digests are comparable across the two (and against an
	// unsharded run) — only the placement differs.
	ShardMode string `json:"shard_mode,omitempty"`
	// Shards reports the per-shard row and device-cost balance of a
	// sharded run (-shards N or -shard-addrs), in shard order; omitted
	// otherwise. Rows is static placement; SimCost and PagesRead are
	// this run's deltas, showing whether pruning and the uniform
	// predicate stream spread the work evenly (remote nodes report
	// SimCost only; their PagesRead stays zero).
	Shards []shardBalance `json:"shards,omitempty"`
	// ResultCache reports the result-cache tier's traffic attributed to
	// this run (counter deltas around it) plus the per-query hit rate;
	// set only when loadConfig.reportCache is on (the -cache mode).
	ResultCache *resultCacheBlock `json:"result_cache,omitempty"`
	// Digest is an order-independent checksum of every result row of
	// every successful query (sum of per-row FNV-1a hashes), stable
	// across client scheduling and parallel-worker interleavings. Two
	// runs of the same workload over the same data must agree on it —
	// including one local and one remote run, since results cross the
	// wire bit-exact.
	Digest uint64 `json:"digest"`
	// PerClient breaks the run down by client goroutine.
	PerClient []clientStat `json:"per_client,omitempty"`
}

// resultCacheBlock is one run's result-cache attribution: HitRate is
// the fraction of successful queries whose ExecStats reported a
// result-cache hit; the counters are tier-side deltas for the run's
// measurement window (Entries/Bytes are the resident population at the
// end of it). Invalidated is the write-driven churn — entries dropped
// because a table epoch moved past their snapshot.
type resultCacheBlock struct {
	HitRate     float64 `json:"hit_rate"`
	Hits        int64   `json:"hits"`
	Misses      int64   `json:"misses"`
	Stores      int64   `json:"stores"`
	StoreSkips  int64   `json:"store_skips"`
	Invalidated int64   `json:"invalidated"`
	Evicted     int64   `json:"evicted"`
	Expired     int64   `json:"expired"`
	Entries     int     `json:"entries"`
	Bytes       int64   `json:"bytes"`
}

// shardBalance is one shard's slice of a sharded run.
type shardBalance struct {
	Shard     int     `json:"shard"`
	Rows      int64   `json:"rows"`
	SimCost   float64 `json:"simcost"`
	PagesRead int64   `json:"pages_read"`
}

// shardReporter is implemented by harnesses that can break a run down
// per shard.
type shardReporter interface {
	shardBalance() []shardBalance
	// shardMode labels where the shards live: "in-process" (-shards)
	// or "remote" (-shard-addrs).
	shardMode() string
}

func (r loadResult) print(w *os.File) {
	fmt.Fprintf(w, "  wall       %.1f ms\n", r.WallMS)
	fmt.Fprintf(w, "  tuples     %d (%.2fM tuples/s aggregate)\n", r.Tuples, r.TuplesPerS/1e6)
	fmt.Fprintf(w, "  queries/s  %.1f\n", r.QueriesPerS)
	fmt.Fprintf(w, "  latency    p50 %.2f ms, p99 %.2f ms, max %.2f ms\n", r.P50MS, r.P99MS, r.MaxMS)
	fmt.Fprintf(w, "  simcost    %.1f units (device total for the run)\n", r.SimCost)
	fmt.Fprintf(w, "  plan reuse %.1f%% of queries\n", r.PlanReuseRate*100)
	if r.Errors > 0 {
		fmt.Fprintf(w, "  errors     %d queries failed (excluded from digest and latency)\n", r.Errors)
	}
	if r.FaultsSeen > 0 || r.Retries > 0 || r.QueryRetries > 0 {
		fmt.Fprintf(w, "  faults     %d seen, %d page retries, %d query re-runs\n",
			r.FaultsSeen, r.Retries, r.QueryRetries)
	}
	if r.Reconnects > 0 {
		fmt.Fprintf(w, "  reconnects %d lost connections re-dialed\n", r.Reconnects)
	}
	if rc := r.ResultCache; rc != nil {
		fmt.Fprintf(w, "  result cache %.1f%% of queries served (%d hits / %d misses, %d stores, %d invalidated, %d evicted)\n",
			rc.HitRate*100, rc.Hits, rc.Misses, rc.Stores, rc.Invalidated, rc.Evicted)
		fmt.Fprintf(w, "               %d entries / %d bytes resident after the run\n", rc.Entries, rc.Bytes)
	}
	for _, sb := range r.Shards {
		fmt.Fprintf(w, "  shard %-4d %8d rows, %10.1f simcost, %8d pages read\n",
			sb.Shard, sb.Rows, sb.SimCost, sb.PagesRead)
	}
}

// rowHash hashes one result row; per-query and per-run digests are
// wrapping sums of row hashes, making them order-independent.
func rowHash(vals []int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// runLoad fires cfg.queries queries across cfg.clients goroutines and
// aggregates wall-clock throughput and latency. Every query goes
// through the composable Query builder — the same surface the
// library's users compose, local or remote — with ctx cancelling
// in-flight queries (and their parallel scan workers, on either side
// of the wire) when the -timeout deadline hits.
func runLoad(ctx context.Context, h harness, cfg loadConfig) (loadResult, error) {
	if cfg.clients < 1 || cfg.queries < 1 {
		return loadResult{}, fmt.Errorf("need at least one client and one query")
	}
	if err := h.mark(); err != nil {
		return loadResult{}, err
	}
	width := int64(float64(cfg.domain) * cfg.selectivity)
	if width < 1 {
		width = 1
	}
	// With cacheTemplates set, clients draw their predicate range from a
	// fixed Zipf-skewed pool instead of uniformly: the same few hot
	// ranges recur across clients, which is the regime a semantic result
	// cache exists for. The pool depends only on seed/domain/width, so a
	// control run and a cached run replay the same candidate ranges.
	var templates [][2]int64
	if cfg.cacheTemplates > 0 {
		trng := rand.New(rand.NewSource(cfg.seed*7919 + 17))
		templates = make([][2]int64, cfg.cacheTemplates)
		for i := range templates {
			lo := int64(0)
			if cfg.domain > width {
				lo = trng.Int63n(cfg.domain - width)
			}
			templates[i] = [2]int64{lo, lo + width}
		}
	}
	var rcBefore smoothscan.ResultCacheStats
	if cfg.reportCache {
		var err error
		if rcBefore, err = h.resultCache(); err != nil {
			return loadResult{}, err
		}
	}

	// Runners are created up front so a backend that cannot serve the
	// run at all (bad prepare, unreachable server) fails it cleanly
	// instead of being tallied as per-query errors.
	runners := make([]runner, cfg.clients)
	for c := range runners {
		r, err := h.newRunner(cfg, c)
		if err != nil {
			for _, prev := range runners[:c] {
				prev.close()
			}
			return loadResult{}, fmt.Errorf("client %d: %w", c, err)
		}
		runners[c] = r
	}
	defer func() {
		for _, r := range runners {
			r.close()
		}
	}()

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []time.Duration
		tuples    int64
		reused    int64
		cacheHits int64
		digest    uint64
		perClient []clientStat
	)
	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func(c int, run runner) {
			defer wg.Done()
			// Distribute exactly cfg.queries across the clients.
			n := cfg.queries / cfg.clients
			if c < cfg.queries%cfg.clients {
				n++
			}
			rng := rand.New(rand.NewSource(cfg.seed + int64(c)*7919))
			var zipf *rand.Zipf
			if len(templates) > 1 {
				zipf = rand.NewZipf(rng, 1.3, 1, uint64(len(templates)-1))
			}
			stat := clientStat{Client: c}
			var localLat []time.Duration
			var localTuples, localReused, localCacheHits int64
			var localDigest uint64
			for q := 0; q < n; q++ {
				lo := int64(0)
				switch {
				case zipf != nil:
					lo = templates[zipf.Uint64()][0]
				case len(templates) == 1:
					lo = templates[0][0]
				case cfg.domain > width:
					lo = rng.Int63n(cfg.domain - width)
				}
				qStart := time.Now()
				var qr queryResult
				var err error
				for attempt := 0; ; attempt++ {
					var once queryResult
					once, err = run.runQuery(ctx, lo, lo+width)
					qr.retries += once.retries
					qr.faults += once.faults
					if err == nil {
						qr.digest, qr.tuples, qr.reused = once.digest, once.tuples, once.reused
						qr.cacheHit = once.cacheHit
						break
					}
					if attempt >= cfg.retryFaults || !smoothscan.IsTransientFault(err) || ctx.Err() != nil {
						break
					}
					stat.QueryRetries++
				}
				stat.Retries += qr.retries
				stat.FaultsSeen += qr.faults
				if err != nil {
					// Record the failure and move on: one poisoned
					// query must not hide the rest of this client's
					// work. A cancelled context is the exception —
					// every further query would fail the same way.
					stat.Errors++
					if stat.FirstError == "" {
						stat.FirstError = err.Error()
					}
					if ctx.Err() != nil {
						break
					}
					continue
				}
				stat.Queries++
				if qr.reused {
					localReused++
				}
				if qr.cacheHit {
					localCacheHits++
				}
				localTuples += qr.tuples
				localDigest += qr.digest
				localLat = append(localLat, time.Since(qStart))
			}
			stat.Reconnects = run.reconnects()
			mu.Lock()
			latencies = append(latencies, localLat...)
			tuples += localTuples
			reused += localReused
			cacheHits += localCacheHits
			digest += localDigest
			perClient = append(perClient, stat)
			mu.Unlock()
		}(c, runners[c])
	}
	wg.Wait()
	wall := time.Since(start)
	if err := ctx.Err(); err != nil {
		return loadResult{}, err
	}
	simCost, err := h.simCost()
	if err != nil {
		return loadResult{}, err
	}
	var shardBal []shardBalance
	shardMode := ""
	if sr, ok := h.(shardReporter); ok {
		shardBal = sr.shardBalance()
		shardMode = sr.shardMode()
	}

	sort.Slice(perClient, func(i, j int) bool { return perClient[i].Client < perClient[j].Client })
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		idx := int(p * float64(len(latencies)-1))
		return float64(latencies[idx]) / float64(time.Millisecond)
	}
	reuseRate := 0.0
	if len(latencies) > 0 {
		reuseRate = float64(reused) / float64(len(latencies))
	}
	res := loadResult{
		Mode:          h.mode(),
		Clients:       cfg.clients,
		Queries:       len(latencies),
		Parallelism:   cfg.opts.Parallelism,
		CPUs:          runtime.NumCPU(),
		WallMS:        float64(wall) / float64(time.Millisecond),
		Tuples:        tuples,
		TuplesPerS:    float64(tuples) / wall.Seconds(),
		QueriesPerS:   float64(len(latencies)) / wall.Seconds(),
		P50MS:         pct(0.50),
		P99MS:         pct(0.99),
		MaxMS:         pct(1.0),
		SimCost:       simCost,
		PlanReuseRate: reuseRate,
		ShardMode:     shardMode,
		Shards:        shardBal,
		Digest:        digest,
		PerClient:     perClient,
	}
	for _, st := range perClient {
		res.Errors += st.Errors
		res.QueryRetries += st.QueryRetries
		res.Retries += st.Retries
		res.FaultsSeen += st.FaultsSeen
		res.Reconnects += st.Reconnects
	}
	if cfg.reportCache {
		rcAfter, err := h.resultCache()
		if err != nil {
			return loadResult{}, err
		}
		blk := &resultCacheBlock{
			Hits:        rcAfter.Hits - rcBefore.Hits,
			Misses:      rcAfter.Misses - rcBefore.Misses,
			Stores:      rcAfter.Stores - rcBefore.Stores,
			StoreSkips:  rcAfter.StoreSkips - rcBefore.StoreSkips,
			Invalidated: rcAfter.InvalidatedStale - rcBefore.InvalidatedStale,
			Evicted:     rcAfter.Evicted - rcBefore.Evicted,
			Expired:     rcAfter.Expired - rcBefore.Expired,
			Entries:     rcAfter.Entries,
			Bytes:       rcAfter.Bytes,
		}
		if len(latencies) > 0 {
			blk.HitRate = float64(cacheHits) / float64(len(latencies))
		}
		res.ResultCache = blk
	}
	return res, nil
}

// chaosRun is one fault schedule of the -chaos sweep.
type chaosRun struct {
	Schedule string     `json:"schedule"`
	Run      loadResult `json:"run"`
	// Match reports whether the run reproduced the fault-free oracle:
	// same digest, same tuple count, zero unrecovered errors.
	Match bool `json:"match"`
}

// chaosReport is the -chaos JSON document.
type chaosReport struct {
	Oracle loadResult `json:"oracle"`
	Runs   []chaosRun `json:"runs"`
}

// chaosQueryRetries is the application-level retry budget chaos mode
// gives each query on top of the engine's page-level retry: transient
// decisions re-roll per attempt, so a recoverable schedule converges.
const chaosQueryRetries = 8

// runChaos verifies end-to-end fault recovery under concurrent load:
// the workload runs once fault-free to record the oracle digest, then
// once per injected fault schedule. Recovered runs must reproduce the
// oracle bit-for-bit; any divergence or unrecovered error fails the
// sweep. Fault decisions are seed-deterministic per (space, page,
// attempt); which attempt a page is at when concurrent clients race
// through the shared pool is scheduling-dependent, which is exactly
// the point — recovery must hold under any interleaving. Remotely the
// same holds with the wire in the loop: schedules are installed via
// fault administration, typed fault errors drive the same client-side
// retries, and the digest must still match the remote oracle.
func runChaos(ctx context.Context, h harness, cfg loadConfig, seed int64, jsonOut string) error {
	oracle, err := runLoad(ctx, h, cfg)
	if err != nil {
		return err
	}
	if oracle.Errors > 0 {
		return fmt.Errorf("chaos: fault-free oracle run had %d errors", oracle.Errors)
	}
	fmt.Printf("ssload -chaos: fault-free oracle (%d clients x %d queries, mode=%s, digest %016x)\n",
		cfg.clients, cfg.queries, h.mode(), oracle.Digest)
	oracle.print(os.Stdout)

	schedules := []struct {
		name string
		rule smoothscan.FaultRule
	}{
		{"transient r=0.05", smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultTransient, Rate: 0.05}},
		{"transient r=0.15", smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultTransient, Rate: 0.15}},
		{"corrupt r=0.05", smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultCorrupt, Rate: 0.05}},
		{"latency r=0.50 +50u", smoothscan.FaultRule{Space: smoothscan.AnySpace, Kind: smoothscan.FaultLatency, Rate: 0.50, ExtraCost: 50}},
	}
	ccfg := cfg
	ccfg.retryFaults = chaosQueryRetries
	report := chaosReport{Oracle: oracle}
	failed := 0
	for _, sc := range schedules {
		if err := h.setFault(seed, &sc.rule); err != nil {
			return fmt.Errorf("chaos: installing schedule %q: %w", sc.name, err)
		}
		res, err := runLoad(ctx, h, ccfg)
		if cerr := h.setFault(0, nil); cerr != nil && err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("chaos: schedule %q: %w", sc.name, err)
		}
		match := res.Digest == oracle.Digest && res.Tuples == oracle.Tuples && res.Errors == 0
		if !match {
			failed++
		}
		verdict := "recovered, digest matches oracle"
		if !match {
			verdict = "DIVERGED from oracle"
		}
		fmt.Printf("chaos %-20s %s — %d faults, %d page retries, %d query re-runs, %d errors\n",
			sc.name, verdict, res.FaultsSeen, res.Retries, res.QueryRetries, res.Errors)
		report.Runs = append(report.Runs, chaosRun{Schedule: sc.name, Run: res, Match: match})
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, report); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("chaos: %d of %d schedules diverged from the fault-free oracle", failed, len(schedules))
	}
	fmt.Printf("chaos: all %d schedules recovered to the oracle digest\n", len(schedules))
	return nil
}

// parallelBenchResult is one point of the -bench parallel sweep.
type parallelBenchResult struct {
	Parallelism int     `json:"parallelism"`
	WallMS      float64 `json:"wall_ms"`
	TuplesPerS  float64 `json:"tuples_per_s"`
	SpeedupP1   float64 `json:"speedup_vs_p1"`
	SimCost     float64 `json:"simcost"`
	// SimCostDeltaP1 is the simulated-cost delta vs the serial run —
	// by construction purely random/sequential classification and
	// per-worker leaf-walk differences, never different heap pages.
	SimCostDeltaP1 float64 `json:"simcost_delta_vs_p1"`
}

// parallelBenchReport is the BENCH_parallel.json document.
type parallelBenchReport struct {
	Benchmark string `json:"benchmark"`
	Rows      int64  `json:"rows"`
	CPUs      int    `json:"cpus"`
	// Warning flags runs whose wall-clock numbers cannot show parallel
	// speedup (GOMAXPROCS=1: workers time-slice one processor), so a
	// downstream reader does not mistake flat scaling for a regression.
	Warning string                `json:"warning,omitempty"`
	Results []parallelBenchResult `json:"results"`
}

// benchParallel runs the P=1/2/4/8 intra-query sweep at 100%
// selectivity (the decode-bound regime) and reports wall-clock
// tuples/s plus the simulated-cost delta vs serial.
func benchParallel(db *smoothscan.DB, rows, domain int64, jsonOut string) error {
	const iters = 5
	report := parallelBenchReport{
		Benchmark: "BenchmarkParallelSmoothScan",
		Rows:      rows,
		CPUs:      runtime.NumCPU(),
	}
	if runtime.GOMAXPROCS(0) == 1 {
		report.Warning = "GOMAXPROCS=1: wall-clock speedup is not measurable on one processor; read simcost deltas only"
	}
	var base parallelBenchResult
	for _, p := range []int{1, 2, 4, 8} {
		best := time.Duration(1<<63 - 1)
		var produced int64
		var simCost float64
		for i := 0; i < iters; i++ {
			if err := db.ColdCache(); err != nil {
				return err
			}
			if err := db.ResetStats(); err != nil {
				return err
			}
			start := time.Now()
			rs, err := db.Query("t").Where("val", smoothscan.Between(0, domain)).
				WithOptions(smoothscan.ScanOptions{Parallelism: p}).Run(context.Background())
			if err != nil {
				return err
			}
			produced = 0
			for rs.Next() {
				produced++
			}
			if rs.Err() != nil {
				rs.Close()
				return rs.Err()
			}
			if err := rs.Close(); err != nil {
				return err
			}
			if d := time.Since(start); d < best {
				best = d
			}
			simCost = db.Stats().Time()
		}
		res := parallelBenchResult{
			Parallelism: p,
			WallMS:      float64(best) / float64(time.Millisecond),
			TuplesPerS:  float64(produced) / best.Seconds(),
			SimCost:     simCost,
		}
		if p == 1 {
			base = res
		}
		if base.WallMS > 0 {
			res.SpeedupP1 = base.WallMS / res.WallMS
		}
		res.SimCostDeltaP1 = res.SimCost - base.SimCost
		report.Results = append(report.Results, res)
		fmt.Printf("P=%d  %8.1f ms  %8.2fM tuples/s  speedup %.2fx  simcost %.0f (Δ%+.0f vs P=1)\n",
			p, res.WallMS, res.TuplesPerS/1e6, res.SpeedupP1, res.SimCost, res.SimCostDeltaP1)
	}
	if report.CPUs == 1 {
		fmt.Println("note: single-CPU host; wall-clock speedup is not expected here, only overhead is visible")
	}
	if jsonOut != "" {
		return writeJSON(jsonOut, report)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
