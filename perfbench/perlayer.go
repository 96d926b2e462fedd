package main

import "fmt"

// perLayer derives the per-layer metrics of a traced run: a is the
// untraced half (runtime counters, throughput baseline), b the traced
// half (spans, per-op engine counters), c0/c1 the engine counters
// around b.
func perLayer(rep *report, w workload, a, b *phaseResult, c0, c1 counters) error {
	if a.ops == 0 || b.ops == 0 {
		return errNoOps
	}
	// Metrics only sharded-rw produces are left out of the result object
	// elsewhere: sharded-rw is not in BENCHMARK.json (see README.md), so
	// in the workloads that are they would only ever read 0.
	shardedOnly := rep.infoNA
	sums := summarize(b.spans, "bench.op")
	spanMetric := func(key, name string, na func(name, unit string)) {
		s, ok := sums[name]
		if !ok {
			na(key+".p50_us", "us")
			na(key+".p99_us", "us")
			na(key+".share", "ratio")
			return
		}
		rep.add(key+".p50_us", s.p50us, "us")
		rep.add(key+".p99_us", s.p99us, "us")
		rep.add(key+".share", s.share, "ratio")
		rep.info(key+".samples ("+name+")", float64(s.count), "count")
	}
	spanMetric("span.open", w.layer+".open", rep.na)
	spanMetric("span.first_row", w.layer+".first_row", rep.na)
	spanMetric("span.drain", w.layer+".drain", rep.na)
	spanMetric("span.insert", "sharded.insert", shardedOnly)
	spanMetric("span.lock_wait", "bench.lock_wait", shardedOnly)

	ops := float64(b.ops)
	io := c1.io.Sub(c0.io)
	rep.add("disk.pages_read_per_op", float64(io.PagesRead)/ops, "pages")
	rep.add("disk.random_reads_per_op", float64(io.RandomAccesses)/ops, "pages")
	rep.add("disk.sim_io_per_op", io.IOTime/ops, "cost")
	rep.add("disk.sim_cpu_per_op", io.CPUTime/ops, "cost")

	l := b.layer
	if l.smoothScans > 0 {
		rep.add("core.pages_fetched_per_op", float64(l.pagesFetched)/ops, "pages")
		rep.add("core.morph_accuracy", ratio(l.pagesWithResults, l.pagesFetched), "ratio")
		rep.add("core.triggered_share", ratio(l.triggered, l.smoothScans), "ratio")
		rep.add("core.leaf_skips_per_op", float64(l.leafSkips)/ops, "count")
	} else {
		rep.na("core.pages_fetched_per_op", "pages")
		rep.na("core.morph_accuracy", "ratio")
		rep.na("core.triggered_share", "ratio")
		rep.na("core.leaf_skips_per_op", "count")
	}
	if l.rcHits+l.rcDirect > 0 {
		rep.add("core.result_cache_hit_ratio", ratio(l.rcHits, l.rcHits+l.rcDirect), "ratio")
	} else {
		rep.na("core.result_cache_hit_ratio", "ratio")
	}

	if hits, misses := c1.planHits-c0.planHits, c1.planMisses-c0.planMisses; hits+misses > 0 {
		rep.add("plan.cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	} else {
		rep.na("plan.cache_hit_ratio", "ratio")
	}

	if c1.res != nil {
		r0, r1 := c0.res, c1.res
		rep.add("rescache.hit_ratio", ratio(r1.Hits-r0.Hits, r1.Hits-r0.Hits+r1.Misses-r0.Misses), "ratio")
		if l.writes > 0 {
			rep.add("rescache.invalidated_per_write", ratio(r1.InvalidatedStale-r0.InvalidatedStale, l.writes), "count")
		} else {
			shardedOnly("rescache.invalidated_per_write", "count")
		}
		rep.add("rescache.evicted", float64(r1.Evicted-r0.Evicted), "count")
	} else {
		shardedOnly("rescache.hit_ratio", "ratio")
		shardedOnly("rescache.invalidated_per_write", "count")
		shardedOnly("rescache.evicted", "count")
	}

	if c1.srv != nil {
		s0, s1 := c0.srv, c1.srv
		rep.add("server.rows_per_batch", ratio(s1.RowsSent-s0.RowsSent, s1.BatchesSent-s0.BatchesSent), "rows")
		rep.add("server.rejected", float64(s1.QueriesRejected-s0.QueriesRejected+s1.ConnsRejected-s0.ConnsRejected), "count")
	} else {
		rep.na("server.rows_per_batch", "rows")
		rep.na("server.rejected", "count")
	}

	if l.shardSlots > 0 {
		rep.add("sharded.pruned_ratio", ratio(l.shardPruned, l.shardSlots), "ratio")
		var total, most int64
		for _, r := range l.shardRows {
			total += r
			most = max(most, r)
		}
		imb := 0.0
		if total > 0 {
			imb = float64(most) / (float64(total) / float64(shardedN))
		}
		rep.add("sharded.row_imbalance", imb, "ratio")
	} else {
		shardedOnly("sharded.pruned_ratio", "ratio")
		shardedOnly("sharded.row_imbalance", "ratio")
	}

	rep.add("runtime.allocs_per_op", float64(a.mallocs)/float64(a.ops), "count")
	rep.add("runtime.alloc_bytes_per_op", float64(a.allocB)/float64(a.ops), "B")
	rep.add("runtime.gc_cpu_fraction", a.gcCPU, "ratio")

	untraced, tracedRate := a.opsRate, b.opsRate
	rep.add("bench.trace_overhead", tracedRate/untraced, "ratio")
	rep.info("untraced ops_per_s", untraced, "1/s")
	rep.info("traced ops_per_s", tracedRate, "1/s")
	if b.firstFail != nil || a.firstFail != nil {
		fmt.Printf("failed operations: %d untraced, %d traced\n", a.failed, b.failed)
	}
	return nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
