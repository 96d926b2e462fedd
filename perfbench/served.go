package main

import (
	"context"
	"math/rand"
	"time"

	"smoothscan"
	"smoothscan/internal/server"
	"smoothscan/ssclient"
)

// served-lookup: an in-process SSWP server with its default
// configuration (result-cache tier off) serves a 200k-row table that
// fits in its 4096-page pool once warm. Two connections each issue
// narrow val ranges with Zipf-skewed start points; 3/4 are prepared
// statement binds and 1/4 ad-hoc literal queries.
const (
	servedRows     = 200_000
	servedPool     = 4096
	servedClients  = 2
	servedCycle    = 64 // 48 prepared, 16 ad-hoc
	servedPrepared = 48
	servedSpan     = 50   // rows per range
	servedStarts   = 4096 // distinct start points under the Zipf draw
	servedWarm     = 256
	zipfS          = 1.1
)

type servedOp struct {
	prepared bool
	lo, hi   int64
}

func prepareServed(seed int64) (func() (system, error), error) {
	g := newGen(seed, servedRows)
	o := buildOracle(g, servedRows, false)
	rng := rand.New(rand.NewSource(seed))
	starts := make([]int, servedStarts)
	for k := range starts {
		starts[k] = rng.Intn(servedRows - servedSpan - 1)
	}
	seqFor := func(client int64) func(c int64) []servedOp {
		return func(c int64) []servedOp {
			rng := rand.New(rand.NewSource(int64(mix64(uint64(seed)*131 + uint64(client)<<32 + uint64(c)))))
			z := rand.NewZipf(rng, zipfS, 1, servedStarts-1)
			ops := make([]servedOp, servedCycle)
			for j := range ops {
				pos := starts[z.Uint64()]
				ops[j] = servedOp{prepared: j < servedPrepared, lo: o.vals[pos], hi: o.vals[pos+servedSpan]}
			}
			rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
			return ops
		}
	}
	return func() (system, error) {
		db, err := smoothscan.Open(smoothscan.Options{PoolPages: servedPool})
		if err != nil {
			return nil, err
		}
		if err := loadFact(db, g, servedRows); err != nil {
			return nil, err
		}
		s := &servedSys{db: db, o: o, srv: server.New(db, server.Config{})}
		if err := s.srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		addr := s.srv.Addr().String()
		for c := int64(0); c < servedClients; c++ {
			sc := &servedClient{sys: s, sn: surfaceSpans("ssclient")}
			s.conns = append(s.conns, sc)
			if sc.conn, err = ssclient.Dial(addr); err != nil {
				s.close()
				return nil, err
			}
			q := sc.conn.Query(factTable).Where("val", ssclient.Between(ssclient.Param("lo"), ssclient.Param("hi")))
			if sc.stmt, err = sc.conn.Prepare(q); err != nil {
				s.close()
				return nil, err
			}
			sc.seq = opSeq[servedOp]{n: servedCycle, gen: seqFor(c)}
			s.cl = append(s.cl, &client{fn: sc.do})
		}
		// Pull the whole table into the pool, then warm each session.
		if err := fullScan(db); err != nil {
			s.close()
			return nil, err
		}
		if err := warmAligned(s.cl, servedWarm, servedCycle); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}, nil
}

// fullScan drains the fact table once through a full scan.
func fullScan(db *smoothscan.DB) error {
	rows, err := db.Query(factTable).WithOptions(smoothscan.ScanOptions{Path: smoothscan.PathFull}).Run(context.Background())
	if err != nil {
		return err
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		rows.Close()
		return err
	}
	return rows.Close()
}

type servedSys struct {
	db    *smoothscan.DB
	o     *oracle
	srv   *server.Server
	conns []*servedClient
	cl    []*client
}

func (s *servedSys) clients() []*client { return s.cl }

func (s *servedSys) close() {
	for _, c := range s.conns {
		if c.conn != nil {
			c.conn.Close()
		}
	}
	s.srv.Close()
}

func (s *servedSys) counters() counters {
	pc := s.db.PlanCacheStats()
	st := s.srv.Stats()
	return counters{io: s.db.Stats(), planHits: pc.Hits, planMisses: pc.Misses, srv: &st}
}

func (s *servedSys) tables() []tableInfo { return []tableInfo{dbTable(s.db, factTable)} }

type servedClient struct {
	sys  *servedSys
	conn *ssclient.Conn
	stmt *ssclient.Stmt
	sn   spanNames
	seq  opSeq[servedOp]
}

func (c *servedClient) do(i int64, tr *spanBuf, ls *layerStats) (outcome, error) {
	op := c.seq.at(i)
	t0 := time.Now()
	root := tr.begin("bench.op", i, -1)
	open := func() (cursor, error) {
		if op.prepared {
			return c.stmt.Run(context.Background(), smoothscan.Bind{"lo": op.lo, "hi": op.hi})
		}
		return c.conn.Query(factTable).Where("val", ssclient.Between(op.lo, op.hi)).Run(context.Background())
	}
	_, got, failed, bad := read(tr, i, root, c.sn, "", open)
	lat := time.Since(t0)
	tr.end(root)
	if bad != nil {
		return outcome{}, bad
	}
	if failed != nil {
		return outcome{lat: lat, err: failed}, nil
	}
	if err := check("lookup", got, c.sys.o.scan(op.lo, op.hi, nil)); err != nil {
		return outcome{}, err
	}
	return outcome{rows: got.rows, lat: lat}, nil
}
