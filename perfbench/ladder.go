package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"smoothscan"
	"smoothscan/internal/btree"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/core"
	"smoothscan/internal/disk"
	"smoothscan/internal/exec"
	"smoothscan/internal/heap"
	"smoothscan/internal/server"
	"smoothscan/internal/tuple"
	"smoothscan/ssclient"
)

// The layer ladder runs one query, SELECT id, val, grp, p1 WHERE
// lo <= val < hi, over the same 100k rows at every rung of the stack,
// from raw page decode up to a sharded coordinator over two remote
// shard servers. Every rung's pool holds the whole table, so the gap
// between adjacent rungs is that layer's CPU cost.
const (
	ladderRows    = 100_000
	ladderPool    = 4096
	ladderBudget  = 250 * time.Millisecond
	ladderMinReps = 5
	ladderSel     = 0.001
)

var (
	ladderCols = []string{"id", "val", "grp", "p1"}
	ladderIdx  = []int{0, colVal, colGrp, colP1}
)

type rungResult struct {
	rung, shape string
	usPerOp     float64
	allocsPerOp float64
	reps        int
}

type ladderResult struct {
	rungs    []rungResult
	hitRatio float64 // buffer pool hit ratio over the core rung
}

// ladderEnv is the substrate every rung reads: the same rows loaded
// into a bare heap file and B+-tree, a DB, a two-shard ShardedDB, a
// server over the DB, and two shard servers behind a remote
// coordinator.
type ladderEnv struct {
	file    *heap.File
	tree    *btree.Tree
	pool    *bufferpool.Pool
	db      *smoothscan.DB
	sdb     *smoothscan.ShardedDB
	rdb     *smoothscan.ShardedDB
	servers []*server.Server
	conn    *ssclient.Conn
}

func (e *ladderEnv) close() {
	if e.conn != nil {
		e.conn.Close()
	}
	if e.rdb != nil {
		e.rdb.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
}

func (e *ladderEnv) serve(db *smoothscan.DB) (string, error) {
	srv := server.New(db, server.Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return "", err
	}
	e.servers = append(e.servers, srv)
	return srv.Addr().String(), nil
}

func buildLadder(g gen) (*ladderEnv, error) {
	e := &ladderEnv{}
	dev := disk.NewDevice(disk.HDD)
	f, err := heap.Create(dev, tuple.Ints(len(factCols)))
	if err != nil {
		return nil, err
	}
	hb := f.NewBuilder()
	r := make([]int64, len(factCols))
	for i := int64(0); i < ladderRows; i++ {
		g.row(i, r)
		if err := hb.Append(tuple.IntsRow(r...)); err != nil {
			return nil, err
		}
	}
	if err := hb.Flush(); err != nil {
		return nil, err
	}
	if e.tree, err = btree.BuildOnColumn(dev, f, colVal); err != nil {
		return nil, err
	}
	e.file, e.pool = f, bufferpool.New(dev, ladderPool)

	opts := smoothscan.Options{PoolPages: ladderPool}
	if e.db, err = smoothscan.Open(opts); err != nil {
		return nil, err
	}
	if err := loadFact(e.db, g, ladderRows); err != nil {
		return nil, err
	}

	part := smoothscan.RangePartitioning("val", smoothscan.EqualWidthBounds(0, g.domain, 2)...)
	if e.sdb, err = smoothscan.OpenSharded(2, opts); err != nil {
		return nil, err
	}
	tb, err := e.sdb.CreateShardedTable(factTable, part, factCols...)
	if err != nil {
		return nil, err
	}
	if err := appendFact(tb, g, ladderRows); err != nil {
		return nil, err
	}
	if err := e.sdb.CreateIndex(factTable, "val"); err != nil {
		return nil, err
	}

	addr, err := e.serve(e.db)
	if err != nil {
		e.close()
		return nil, err
	}
	if e.conn, err = ssclient.Dial(addr); err != nil {
		e.close()
		return nil, err
	}

	var placements []smoothscan.Placement
	for sh := 0; sh < 2; sh++ {
		db, err := shardSlice(g, part, sh, opts)
		if err != nil {
			e.close()
			return nil, err
		}
		addr, err := e.serve(db)
		if err != nil {
			e.close()
			return nil, err
		}
		placements = append(placements, smoothscan.Placement{Addr: addr})
	}
	e.rdb, err = smoothscan.OpenShardedRemote(placements, map[string]smoothscan.Partitioning{factTable: part}, opts)
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// shardSlice loads the rows part routes to shard sh as a standalone DB.
func shardSlice(g gen, part smoothscan.Partitioning, sh int, opts smoothscan.Options) (*smoothscan.DB, error) {
	db, err := smoothscan.Open(opts)
	if err != nil {
		return nil, err
	}
	tb, err := db.CreateTable(factTable, factCols...)
	if err != nil {
		return nil, err
	}
	r := make([]int64, len(factCols))
	for i := int64(0); i < ladderRows; i++ {
		g.row(i, r)
		if part.Route(r[colVal]) != sh {
			continue
		}
		if err := tb.Append(r...); err != nil {
			return nil, err
		}
	}
	if err := tb.Finish(); err != nil {
		return nil, err
	}
	return db, db.CreateIndex(factTable, "val")
}

// project digests the ladder's output columns of a full fact row.
func project(d *digest, row tuple.Row) {
	var p [4]int64
	for k, c := range ladderIdx {
		p[k] = row.Int(c)
	}
	d.add(p[:])
}

// heapSel is the page-level floor of the selective shape: probe the
// index for the range, fetch each qualifying tuple in heap order.
func (e *ladderEnv) heapSel(lo, hi int64) (digest, error) {
	var d digest
	it, err := e.tree.SeekGE(e.pool, lo)
	if err != nil {
		return d, err
	}
	var tids []heap.TID
	for {
		en, ok, err := it.Next()
		if err != nil {
			return d, err
		}
		if !ok || en.Key >= hi {
			break
		}
		tids = append(tids, en.TID)
	}
	slices.SortFunc(tids, func(a, b heap.TID) int {
		if a.Less(b) {
			return -1
		}
		if b.Less(a) {
			return 1
		}
		return 0
	})
	row := tuple.NewRow(e.file.Schema())
	for _, t := range tids {
		if row, err = e.file.DecodeRowAt(e.pool, t, row); err != nil {
			return d, err
		}
		project(&d, row)
	}
	return d, nil
}

// heapFull decodes every heap page, keeping the rows in range.
func (e *ladderEnv) heapFull(lo, hi int64) (digest, error) {
	var d digest
	pred := tuple.RangePred{Col: colVal, Lo: lo, Hi: hi}
	b := tuple.NewBatchFor(e.file.Schema(), exec.DefaultBatchSize)
	for p := int64(0); p < e.file.NumPages(); p++ {
		page, err := e.file.GetPage(e.pool, p)
		if err != nil {
			return d, err
		}
		n := heap.PageTupleCount(page)
		for s := 0; s < n; {
			b.Reset()
			s, _ = e.file.DecodeBatchMatching(page, s, n, pred, nil, nil, b)
			for k := 0; k < b.Len(); k++ {
				project(&d, b.Row(k))
			}
		}
	}
	return d, nil
}

func (e *ladderEnv) smooth(lo, hi int64) (*core.SmoothScan, error) {
	return core.NewSmoothScan(e.file, e.pool, e.tree, tuple.RangePred{Col: colVal, Lo: lo, Hi: hi}, core.Config{})
}

// drainOp opens, drains and closes an operator through the batched
// protocol; full rows are projected, narrow ones digested as they are.
func drainOp(op exec.Operator, width int) (digest, error) {
	var d digest
	if err := op.Open(); err != nil {
		return d, err
	}
	b := tuple.NewBatch(width, exec.DefaultBatchSize)
	vals := make([]int64, width)
	for {
		b.Reset()
		n, err := exec.NextBatch(op, b)
		if err != nil {
			op.Close()
			return d, err
		}
		if n == 0 {
			break
		}
		for k := 0; k < b.Len(); k++ {
			if width == len(factCols) {
				project(&d, b.Row(k))
				continue
			}
			for c := range vals {
				vals[c] = b.Row(k).Int(c)
			}
			d.add(vals)
		}
	}
	return d, op.Close()
}

func (e *ladderEnv) core(lo, hi int64) (digest, error) {
	s, err := e.smooth(lo, hi)
	if err != nil {
		return digest{}, err
	}
	return drainOp(s, len(factCols))
}

func (e *ladderEnv) exec(lo, hi int64) (digest, error) {
	s, err := e.smooth(lo, hi)
	if err != nil {
		return digest{}, err
	}
	p, err := exec.NewColProject(s, ladderIdx)
	if err != nil {
		return digest{}, err
	}
	return drainOp(p, len(ladderIdx))
}

func drainCursor(cur cursor, err error) (digest, error) {
	var d digest
	if err != nil {
		return d, err
	}
	for cur.Next() {
		d.add(cur.Row())
	}
	err = cur.Err()
	if cerr := cur.Close(); err == nil {
		err = cerr
	}
	return d, err
}

func (e *ladderEnv) dbRung(lo, hi int64) (digest, error) {
	return drainCursor(e.db.Query(factTable).Where("val", smoothscan.Between(lo, hi)).Select(ladderCols...).Run(context.Background()))
}

func (e *ladderEnv) shardedRung(lo, hi int64) (digest, error) {
	return drainCursor(e.sdb.Query(factTable).Where("val", smoothscan.Between(lo, hi)).Select(ladderCols...).Run(context.Background()))
}

func (e *ladderEnv) serverRung(lo, hi int64) (digest, error) {
	return drainCursor(e.conn.Query(factTable).Where("val", ssclient.Between(lo, hi)).Select(ladderCols...).Run(context.Background()))
}

func (e *ladderEnv) remoteRung(lo, hi int64) (digest, error) {
	return drainCursor(e.rdb.Query(factTable).Where("val", smoothscan.Between(lo, hi)).Select(ladderCols...).Run(context.Background()))
}

// runLadder measures every rung on both shapes.
func runLadder(seed int64) (*ladderResult, error) {
	g := newGen(seed, ladderRows)
	e, err := buildLadder(g)
	if err != nil {
		return nil, err
	}
	defer e.close()

	w := int64(ladderSel * float64(g.domain))
	lo := rand.New(rand.NewSource(seed)).Int63n(g.domain - w)
	bounds := map[string][2]int64{"sel": {lo, lo + w}, "full": {0, g.domain}}
	want := map[string]digest{}
	r := make([]int64, len(factCols))
	for i := int64(0); i < ladderRows; i++ {
		g.row(i, r)
		for shape, b := range bounds {
			if r[colVal] >= b[0] && r[colVal] < b[1] {
				d := want[shape]
				project(&d, tuple.IntsRow(r...))
				want[shape] = d
			}
		}
	}

	type query func(lo, hi int64) (digest, error)
	rungs := []struct {
		name      string
		sel, full query
	}{
		{"heap", e.heapSel, e.heapFull},
		{"core", e.core, e.core},
		{"exec", e.exec, e.exec},
		{"db", e.dbRung, e.dbRung},
		{"sharded", e.shardedRung, e.shardedRung},
		{"server", e.serverRung, e.serverRung},
		{"remote", e.remoteRung, e.remoteRung},
	}
	res := &ladderResult{}
	for _, rung := range rungs {
		var p0 bufferpool.Stats
		if rung.name == "core" {
			p0 = e.pool.Stats()
		}
		for _, shape := range []string{"sel", "full"} {
			fn := rung.sel
			if shape == "full" {
				fn = rung.full
			}
			b := bounds[shape]
			rr, err := measure(func() (digest, error) { return fn(b[0], b[1]) }, want[shape])
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", rung.name, shape, err)
			}
			rr.rung, rr.shape = rung.name, shape
			res.rungs = append(res.rungs, rr)
		}
		if rung.name == "core" {
			p1 := e.pool.Stats()
			res.hitRatio = ratio(p1.Hits-p0.Hits, p1.Hits-p0.Hits+p1.Misses-p0.Misses)
		}
	}
	return res, nil
}

// measure checks fn against want, then times it for ladderBudget (at
// least ladderMinReps calls), reporting the median call time and the
// mean allocations per call.
func measure(fn func() (digest, error), want digest) (rungResult, error) {
	for k := 0; k < 2; k++ {
		d, err := fn()
		if err != nil {
			return rungResult{}, err
		}
		if err := check("ladder", d, want); err != nil {
			return rungResult{}, err
		}
	}
	var durs []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for len(durs) < ladderMinReps || time.Since(start) < ladderBudget {
		t0 := time.Now()
		d, err := fn()
		durs = append(durs, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return rungResult{}, err
		}
		if d != want {
			return rungResult{}, check("ladder", d, want)
		}
	}
	runtime.ReadMemStats(&m1)
	return rungResult{
		usPerOp:     median(durs),
		allocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(len(durs)),
		reps:        len(durs),
	}, nil
}

// ladderBase names the rung each rung wraps: the gap between the two
// is the wrapping layer's cost. The server rung serves the db rung's
// DB; the remote rung is the sharded coordinator over shard servers.
var ladderBase = map[string]string{
	"core": "heap", "exec": "core", "db": "exec", "sharded": "db", "server": "db", "remote": "sharded",
}

func (l *ladderResult) report(rep *report) {
	us := map[string]float64{}
	for _, r := range l.rungs {
		key := "ladder." + r.rung + "." + r.shape
		us[key] = r.usPerOp
		rep.add(key+".us_per_op", r.usPerOp, "us")
		rep.add(key+".allocs_per_op", r.allocsPerOp, "count")
		rep.info(key+".reps", float64(r.reps), "count")
		if base, ok := ladderBase[r.rung]; ok {
			rep.info(key+".gap_over_"+base+"_us", r.usPerOp-us["ladder."+base+"."+r.shape], "us")
		}
	}
	rep.add("ladder.core.bufferpool_hit_ratio", l.hitRatio, "ratio")
}
