package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"smoothscan"
)

// sharded-rw: an in-process ShardedDB with two shards, range-partitioned
// on val, holding 1M rows (each shard's slice about five times its
// 1024-page pool), with the coordinator result cache on at 16 MiB. Two
// clients run 90% reads of Zipf-repeated 0.2% ranges (a third of them
// with a cross-shard GroupBy) and 10% Inserts.
//
// The DB contract forbids mutations while cursors are open, so the
// clients share a reader/writer lock: a read holds it shared from the
// call to cursor close, an Insert holds it exclusively. Waiting for it
// is part of each operation's latency and is traced as
// bench.lock_wait.
const (
	shardedRows     = 1_000_000
	shardedN        = 2
	shardedClients  = 2
	shardedCycle    = 30 // 27 reads, 3 inserts
	shardedInserts  = 3
	shardedSpan     = 2000 // rows per range: 0.2%
	shardedRanges   = 512  // distinct ranges under the Zipf draw
	shardedResBytes = 16 << 20
	shardedWarm     = 60
)

type shardedOp struct {
	insert bool
	rng    int // index into ranges
}

type shardedRange struct {
	lo, hi int64
	group  bool
}

func prepareSharded(seed int64) (func() (system, error), error) {
	g := newGen(seed, shardedRows)
	o := buildOracle(g, shardedRows, false)
	rng := rand.New(rand.NewSource(seed))
	ranges := make([]shardedRange, shardedRanges)
	for k := range ranges {
		pos := rng.Intn(shardedRows - shardedSpan - 1)
		ranges[k] = shardedRange{lo: o.vals[pos], hi: o.vals[pos+shardedSpan], group: k%3 == 0}
	}
	seqFor := func(client int64) func(c int64) []shardedOp {
		return func(c int64) []shardedOp {
			rng := rand.New(rand.NewSource(int64(mix64(uint64(seed)*7919 + uint64(client)<<32 + uint64(c)))))
			z := rand.NewZipf(rng, zipfS, 1, shardedRanges-1)
			ops := make([]shardedOp, shardedCycle)
			for j := range ops {
				ops[j] = shardedOp{insert: j < shardedInserts, rng: int(z.Uint64())}
			}
			rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
			return ops
		}
	}
	return func() (system, error) {
		sdb, err := smoothscan.OpenSharded(shardedN, smoothscan.Options{PoolPages: defaultPool, ResultCacheBytes: shardedResBytes})
		if err != nil {
			return nil, err
		}
		part := smoothscan.RangePartitioning("val", smoothscan.EqualWidthBounds(0, g.domain, shardedN)...)
		tb, err := sdb.CreateShardedTable(factTable, part, factCols...)
		if err != nil {
			return nil, err
		}
		if err := appendFact(tb, g, shardedRows); err != nil {
			return nil, err
		}
		if err := sdb.CreateIndex(factTable, "val"); err != nil {
			return nil, err
		}
		s := &shardedSys{db: sdb, o: o, g: g, ranges: ranges, sn: surfaceSpans("sharded")}
		for c := int64(0); c < shardedClients; c++ {
			sc := &shardedClient{sys: s, id: c, seq: opSeq[shardedOp]{n: shardedCycle, gen: seqFor(c)}}
			s.cl = append(s.cl, &client{fn: sc.do})
		}
		return s, warmAligned(s.cl, shardedWarm, shardedCycle)
	}, nil
}

type shardedSys struct {
	db     *smoothscan.ShardedDB
	o      *oracle
	g      gen
	ranges []shardedRange
	sn     spanNames
	cl     []*client

	mu  sync.RWMutex // shared by reads from call to close, exclusive for Insert
	ins [][]int64    // rows inserted so far, in commit order; guarded by mu
}

func (s *shardedSys) clients() []*client { return s.cl }
func (s *shardedSys) close()             { s.db.Close() }

func (s *shardedSys) counters() counters {
	c := counters{io: s.db.Stats()}
	for i := 0; i < s.db.NumShards(); i++ {
		pc := s.db.Shard(i).PlanCacheStats()
		c.planHits += pc.Hits
		c.planMisses += pc.Misses
	}
	rs := s.db.ResultCacheStats()
	c.res = &rs
	return c
}

func (s *shardedSys) tables() []tableInfo {
	out := make([]tableInfo, s.db.NumShards())
	for i := range out {
		out[i] = dbTable(s.db.Shard(i), factTable)
		out[i].Name = fmt.Sprintf("%s@shard%d", factTable, i)
	}
	return out
}

type shardedClient struct {
	sys     *shardedSys
	id      int64
	seq     opSeq[shardedOp]
	ninsert int64
}

func (c *shardedClient) do(i int64, tr *spanBuf, ls *layerStats) (outcome, error) {
	op := c.seq.at(i)
	if op.insert {
		return c.insert(i, tr, ls), nil
	}
	return c.read(i, op, tr, ls)
}

func (c *shardedClient) insert(i int64, tr *spanBuf, ls *layerStats) outcome {
	s := c.sys
	row := make([]int64, len(factCols))
	s.g.row(shardedRows+c.id<<40+c.ninsert, row)
	c.ninsert++
	t0 := time.Now()
	root := tr.begin("bench.op", i, -1)
	w := tr.begin("bench.lock_wait", i, root)
	s.mu.Lock()
	tr.end(w)
	sp := tr.begin("sharded.insert", i, root)
	err := s.db.Insert(factTable, row...)
	tr.end(sp)
	if err == nil {
		s.ins = append(s.ins, row)
	}
	s.mu.Unlock()
	lat := time.Since(t0)
	tr.end(root)
	if ls != nil && err == nil {
		ls.writes++
	}
	return outcome{write: true, lat: lat, err: err}
}

func (c *shardedClient) read(i int64, op shardedOp, tr *spanBuf, ls *layerStats) (outcome, error) {
	s := c.sys
	r := s.ranges[op.rng]
	t0 := time.Now()
	root := tr.begin("bench.op", i, -1)
	w := tr.begin("bench.lock_wait", i, root)
	s.mu.RLock()
	tr.end(w)
	ins := s.ins
	q := s.db.Query(factTable).Where("val", smoothscan.Between(r.lo, r.hi))
	if r.group {
		q.GroupBy("grp", smoothscan.Count(), smoothscan.Sum("p1"))
	}
	cur, got, failed, bad := read(tr, i, root, s.sn, "", func() (cursor, error) { return q.Run(context.Background()) })
	s.mu.RUnlock()
	lat := time.Since(t0)
	tr.end(root)
	if bad != nil {
		return outcome{}, bad
	}
	if failed != nil {
		return outcome{lat: lat, err: failed}, nil
	}
	var want digest
	what := "range"
	if r.group {
		want, what = s.o.groups(r.lo, r.hi, ins), "group"
	} else {
		want = s.o.scan(r.lo, r.hi, ins)
	}
	if err := check(what, got, want); err != nil {
		st := cur.(*smoothscan.ShardedRows).ExecStats()
		return outcome{}, fmt.Errorf("client %d op %d, val in [%d, %d) after %d inserts, result-cache hit %v: %w",
			c.id, i, r.lo, r.hi, len(ins), st.ResultCache.Hit, err)
	}
	if ls != nil {
		if st := cur.(*smoothscan.ShardedRows).ExecStats(); !st.ResultCache.Hit {
			for _, sh := range st.Shards {
				ls.shardSlots++
				if sh.Pruned {
					ls.shardPruned++
					continue
				}
				for len(ls.shardRows) <= sh.Shard {
					ls.shardRows = append(ls.shardRows, 0)
				}
				ls.shardRows[sh.Shard] += sh.Rows
				if sh.HasSmooth {
					ls.smooth(sh.Smooth)
				}
			}
		}
	}
	return outcome{rows: got.rows, lat: lat}, nil
}
