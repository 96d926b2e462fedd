package smoothscan

import (
	"smoothscan/internal/exec"
	"smoothscan/internal/rescache"
	"smoothscan/internal/tuple"
)

// Result-cache tier glue: how the semantic query-result cache
// (internal/rescache) plugs into the execute path.
//
// Lookup happens in startRows, under the same db.mu read lock the
// compile/bind phases hold, so the epoch revalidation sees a view
// consistent with the bind-time capture: any Insert either completed
// before the lock (its epoch bump fails the revalidation) or waits
// until after the serve. A hit builds a Rows over cachedStream — a
// pure in-memory operator — so the execution performs zero device I/O.
// Every front checks ctx before the lookup, so a cancelled context
// fails Run on a hit exactly as on a miss.
//
// The store path is a passive tee: a cacheable miss gets a resAccum
// that copies every delivered batch; Close admits the accumulated
// result only when the stream drained completely, error-free and
// undegraded, and only after re-checking the captured epochs (a write
// that interleaved with the scan — open-scan interference — makes the
// re-check fail and the store is skipped).
//
// Bypass rules (no lookup, no store): tier disabled, plans
// short-circuited to empty, executions with a fault policy attached,
// and fault-degraded runs. ColdCache purges the tier
// wholesale so cold measurements stay cold.

// resAccum accumulates one execution's result stream for a
// store-on-Close, bounded by the cache's per-entry byte cap.
type resAccum struct {
	key    string
	epochs map[string]uint64
	width  int
	flat   []uint64
	rows   int
	// overflow marks a result past the per-entry cap: accumulation
	// stops and Close will not store.
	overflow bool
	capVals  int // flat length bound derived from the entry cap
}

// newResAccum sizes an accumulator for the compiled query's output.
func newResAccum(key string, epochs map[string]uint64, entryCap int64, width int) *resAccum {
	capVals := int(entryCap / 8)
	return &resAccum{key: key, epochs: epochs, width: width, capVals: capVals}
}

// addBatch copies the first n rows of b into the accumulator.
func (a *resAccum) addBatch(b *tuple.Batch, n int) {
	if a.overflow {
		return
	}
	if len(a.flat)+n*a.width > a.capVals {
		a.overflow = true
		a.flat = nil
		return
	}
	for i := 0; i < n; i++ {
		a.flat = append(a.flat, b.Row(i)...)
	}
	a.rows += n
}

// store admits the drained result into c — unless it overflowed the
// entry cap, or a write moved any referenced table's epoch (as
// epochOf reads it now) since the epochs were captured: the entry
// would be born stale.
func (a *resAccum) store(c *rescache.Cache, epochOf func(string) uint64) {
	if a.overflow || c == nil {
		return
	}
	for name, ep := range a.epochs {
		if epochOf(name) != ep {
			return
		}
	}
	c.Store(a.key, a.flat, a.rows, a.width, a.epochs)
}

// cachedOp is the leaf operator serving a materialized result set: a
// read-only view over the cache entry's flat row data. It touches no
// device and charges no simulated cost — the entire point of the tier.
type cachedOp struct {
	schema *tuple.Schema
	flat   []uint64
	width  int
	rows   int
	pos    int
	open   bool
}

func newCachedOp(schema *tuple.Schema, v rescache.View) *cachedOp {
	return &cachedOp{schema: schema, flat: v.Flat, width: v.Width, rows: v.Rows}
}

func (c *cachedOp) Schema() *tuple.Schema { return c.schema }
func (c *cachedOp) Open() error           { c.pos = 0; c.open = true; return nil }
func (c *cachedOp) Close() error          { c.open = false; return nil }

func (c *cachedOp) Next() (tuple.Row, bool, error) {
	if !c.open {
		return nil, false, exec.ErrClosed
	}
	if c.pos >= c.rows {
		return nil, false, nil
	}
	i := c.pos
	c.pos++
	return tuple.Row(c.flat[i*c.width : (i+1)*c.width : (i+1)*c.width]), true, nil
}

func (c *cachedOp) NextBatch(out *tuple.Batch) (int, error) {
	if !c.open {
		return 0, exec.ErrClosed
	}
	out.Reset()
	for c.pos < c.rows {
		slot := out.AppendSlotRaw()
		if slot == nil {
			break
		}
		copy(slot, c.flat[c.pos*c.width:(c.pos+1)*c.width])
		c.pos++
	}
	return out.Len(), nil
}

// cacheable reports whether this execution participates in the result
// cache at all, and is the single place the bypass rules live.
func (db *DB) cacheable(cq *compiledQuery) bool {
	return db.resCache != nil && cq.resKey != "" && db.dev.FaultPolicy() == nil
}

// Coordinator-level result caching: the sharded engine carries its own
// tier above scatter-gather, so a repeated sharded query is served from
// the coordinator's memory without touching any shard — no gather, no
// per-shard cursors, no device or network traffic. The per-shard
// slices still flow through each shard DB's own tier (the same Options
// configure both), so a coordinator miss can still be assembled from
// per-shard hits. Serving and storing go through the same cachedStream
// and resAccum.store as the DB tier; only the policy below differs.
//
// Epochs at this level are the sum of the shard epochs for each table:
// every Insert routes to exactly one shard and bumps that shard's
// table epoch under its lock, so the sum is monotonic and moves on
// every write regardless of which shard took it. A remote topology's
// planning mirrors hold no rows and the coordinator refuses mutations,
// so its epochs are static — consistent with the open-time catalog
// snapshot the coordinator already treats as the data's state.

// initResultCache installs the coordinator tier; a helper so the open
// paths (OpenSharded, OpenShardedRemote) need no rescache import.
func (s *ShardedDB) initResultCache(opts Options) {
	s.resCache = rescache.New(opts.ResultCacheBytes, opts.ResultCacheTTL)
}

// ResultCacheStats snapshots the coordinator-level result-cache tier's
// counters (zero when the tier is disabled). Per-shard tiers are
// reachable via Shard(i).ResultCacheStats().
func (s *ShardedDB) ResultCacheStats() ResultCacheStats { return s.resCache.Stats() }

// epochOf sums the named table's write epoch across shards — the
// coordinator tier's invalidation clock. Each shard's epoch is read
// under its own lock; the sum is monotonic because shard epochs only
// ever increase.
func (s *ShardedDB) epochOf(name string) uint64 {
	var sum uint64
	for _, db := range s.shards {
		db.mu.RLock()
		sum += db.epochOfLocked(name)
		db.mu.RUnlock()
	}
	return sum
}

// epochsFor captures the coordinator epochs of every table the
// compiled query reads, keyed like cq0.resEpochs. Must be called
// before the gather starts so a write interleaving with the scan
// fails the store-time re-check.
func (s *ShardedDB) epochsFor(cq0 *compiledQuery) map[string]uint64 {
	eps := make(map[string]uint64, len(cq0.resEpochs))
	for name := range cq0.resEpochs {
		eps[name] = s.epochOf(name)
	}
	return eps
}

// cacheableSharded reports whether this sharded execution participates
// in the coordinator tier. Beyond the local rules (tier enabled, key
// derived, no empty short-circuit), any shard carrying a fault policy
// bypasses — degraded shard runs may skip corrupted pages, and a
// partial result must never be pinned. A remote broadcast join also
// bypasses: its replicated side drains through cursors whose
// degradation state the coordinator cannot observe.
func (s *ShardedDB) cacheableSharded(se *shardExec) bool {
	if s.resCache == nil || se.cq0.resKey == "" || se.emptyWhy != "" {
		return false
	}
	for _, db := range s.shards {
		if db.dev.FaultPolicy() != nil {
			return false
		}
	}
	if s.remote && se.strategy == strategyBroadcast {
		return false
	}
	return true
}

// storeEligible reports whether a drained sharded execution's result
// may enter the coordinator cache: fully drained, error-free, and no
// shard unavailable or degraded (a gather that lost or degraded a
// shard delivered a best-effort result, not the query's answer).
func (r *ShardedRows) storeEligible() bool {
	if !r.done || r.err != nil {
		return false
	}
	for _, a := range r.adapters {
		if a.unavailable {
			return false
		}
		if a.cur == nil {
			continue
		}
		if st, ok := a.cur.execStats(); ok && len(st.Degraded) > 0 {
			return false
		}
	}
	return true
}
