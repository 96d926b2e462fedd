package main

import (
	"context"
	"math"
	"math/rand"
	"time"

	"smoothscan"
)

// analytic-oblivious: one client runs range queries on the indexed val
// column of a 1M-row table about ten times larger than the default
// buffer pool. Analyze never runs, so every plan is made without
// statistics, which is the premise of Smooth Scan.
const (
	analyticRows  = 1_000_000
	analyticCycle = 64 // 32 plain, 16 GroupBy, 8 OrderBy, 8 join
	analyticWarm  = 16
	minSel        = 1e-4
	maxSel        = 1e-1
)

type analyticKind uint8

const (
	aPlain analyticKind = iota
	aGroup
	aOrder
	aJoin
)

var analyticKindNames = [...]string{"plain", "group", "order", "join"}

type analyticOp struct {
	kind   analyticKind
	lo, hi int64
}

// analyticOps builds cycle c: each kind gets its share of the cycle,
// with selectivities stratified over the log-uniform range, so every
// cycle holds the same mix. The offset within each stratum follows a
// golden-ratio sequence over cycles, the same for every seed; the seed
// picks where each range lies and the order within the cycle.
func analyticOps(seed int64, c int64, domain int64) []analyticOp {
	rng := rand.New(rand.NewSource(int64(mix64(uint64(seed)*31 + uint64(c)))))
	_, offset := math.Modf(0.5 + float64(c)*0.6180339887498949)
	ops := make([]analyticOp, 0, analyticCycle)
	for kind, n := range [...]int{32, 16, 8, 8} {
		for j := 0; j < n; j++ {
			u := (float64(j) + offset) / float64(n)
			sel := math.Exp(math.Log(minSel) + u*math.Log(maxSel/minSel))
			w := max(1, int64(sel*float64(domain)))
			lo := rng.Int63n(domain - w)
			ops = append(ops, analyticOp{kind: analyticKind(kind), lo: lo, hi: lo + w})
		}
	}
	rng.Shuffle(len(ops), func(a, b int) { ops[a], ops[b] = ops[b], ops[a] })
	return ops
}

func prepareAnalytic(seed int64) (func() (system, error), error) {
	g := newGen(seed, analyticRows)
	o := buildOracle(g, analyticRows, true)
	return func() (system, error) {
		db, err := smoothscan.Open(smoothscan.Options{PoolPages: defaultPool})
		if err != nil {
			return nil, err
		}
		if err := loadFact(db, g, analyticRows); err != nil {
			return nil, err
		}
		if err := loadDim(db, g); err != nil {
			return nil, err
		}
		s := &analyticSys{db: db, o: o, sn: surfaceSpans("db")}
		s.seq = opSeq[analyticOp]{n: analyticCycle, gen: func(c int64) []analyticOp { return analyticOps(seed, c, g.domain) }}
		s.cl = []*client{{fn: s.do}}
		return s, warmAligned(s.cl, analyticWarm, analyticCycle)
	}, nil
}

type analyticSys struct {
	db  *smoothscan.DB
	o   *oracle
	sn  spanNames
	seq opSeq[analyticOp]
	cl  []*client
}

func (s *analyticSys) clients() []*client { return s.cl }
func (s *analyticSys) close()             {}

func (s *analyticSys) counters() counters {
	pc := s.db.PlanCacheStats()
	return counters{io: s.db.Stats(), planHits: pc.Hits, planMisses: pc.Misses}
}

func (s *analyticSys) tables() []tableInfo {
	return []tableInfo{dbTable(s.db, factTable), dbTable(s.db, dimTable)}
}

func (s *analyticSys) do(i int64, tr *spanBuf, ls *layerStats) (outcome, error) {
	op := s.seq.at(i)
	t0 := time.Now()
	root := tr.begin("bench.op", i, -1)
	q := s.db.Query(factTable).Where("val", smoothscan.Between(op.lo, op.hi)).
		WithOptions(smoothscan.ScanOptions{Parallelism: 2})
	orderBy := ""
	switch op.kind {
	case aGroup:
		q.GroupBy("grp", smoothscan.Count(), smoothscan.Sum("p1"))
	case aOrder:
		q.OrderBy("val")
		orderBy = "val"
	case aJoin:
		q.Join(dimTable, "dk", "did")
	}
	cur, got, failed, bad := read(tr, i, root, s.sn, orderBy, func() (cursor, error) { return q.Run(context.Background()) })
	lat := time.Since(t0)
	tr.end(root)
	if bad != nil {
		return outcome{}, bad
	}
	if failed != nil {
		return outcome{lat: lat, err: failed}, nil
	}
	var want digest
	switch op.kind {
	case aGroup:
		want = s.o.groups(op.lo, op.hi, nil)
	case aJoin:
		want = s.o.join(op.lo, op.hi)
	default:
		want = s.o.scan(op.lo, op.hi, nil)
	}
	if err := check(analyticKindNames[op.kind], got, want); err != nil {
		return outcome{}, err
	}
	if ls != nil {
		if st := cur.(*smoothscan.Rows).ExecStats(); st.HasSmooth {
			ls.smooth(st.Smooth)
		}
	}
	return outcome{rows: got.rows, lat: lat}, nil
}
