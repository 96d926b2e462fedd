package main

import (
	"fmt"

	"smoothscan"
	"smoothscan/ssclient"
)

// system is one set-up instance of a workload: the engine, its
// clients and the oracle state the clients check against.
type system interface {
	clients() []*client
	counters() counters
	tables() []tableInfo
	close()
}

// counters is a snapshot of the engine-wide counters a workload can
// read; deltas between two snapshots give per-phase figures.
type counters struct {
	io                   smoothscan.IOStats
	planHits, planMisses uint64
	res                  *smoothscan.ResultCacheStats // nil when the tier is off
	srv                  *ssclient.ServerStats        // nil without a server
}

type tableInfo struct {
	Name  string `json:"name"`
	Rows  int64  `json:"rows"`
	Pages int64  `json:"pages"`
}

// workload describes one benchmark workload.
type workload struct {
	name    string
	layer   string // span prefix of the read surface the clients call
	clients int
	// stopCycle, when nonzero, is the cycle length clients stop on:
	// with few, heavy operations every run then measures whole copies
	// of the mix. Zero stops clients at the deadline.
	stopCycle int64
	poolPages int
	resBytes  int64
	// prepare does the untimed work (oracle, operation sequences) and
	// returns the timed set-up, which may be called several times.
	prepare func(seed int64) (func() (system, error), error)
}

var workloads = []workload{
	{name: "analytic-oblivious", layer: "db", clients: 1, stopCycle: analyticCycle,
		poolPages: defaultPool, prepare: prepareAnalytic},
	{name: "served-lookup", layer: "ssclient", clients: servedClients,
		poolPages: servedPool, prepare: prepareServed},
	{name: "sharded-rw", layer: "sharded", clients: shardedClients,
		poolPages: defaultPool, resBytes: shardedResBytes, prepare: prepareSharded},
}

// defaultPool is smoothscan's default PoolPages, spelled out so the
// environment block reports what the workloads configure.
const defaultPool = 1024

// opSeq is one client's fixed operation sequence, generated a cycle
// at a time from the seed, so operation i is the same on every run.
type opSeq[T any] struct {
	n   int64
	gen func(c int64) []T
	c   int64
	ops []T
}

func (s *opSeq[T]) at(i int64) T {
	if c := i / s.n; s.ops == nil || c != s.c {
		s.ops, s.c = s.gen(c), c
	}
	return s.ops[i%s.n]
}

// warmAligned runs n warm-up operations per client, then moves each
// client to the start of its next cycle so measurement begins on a
// cycle boundary.
func warmAligned(cl []*client, n, cycle int64) error {
	for _, c := range cl {
		for k := int64(0); k < n; k++ {
			o, err := c.fn(c.next, nil, nil)
			c.next++
			if err != nil {
				return err
			}
			if o.err != nil {
				return fmt.Errorf("warm-up operation failed: %w", o.err)
			}
		}
		c.next = (c.next + cycle - 1) / cycle * cycle
	}
	return nil
}

// appender is the bulk-load surface of TableBuilder and ShardedTableBuilder.
type appender interface {
	Append(vals ...int64) error
	Finish() error
}

func appendFact(tb appender, g gen, rows int64) error {
	r := make([]int64, len(factCols))
	for i := int64(0); i < rows; i++ {
		g.row(i, r)
		if err := tb.Append(r...); err != nil {
			return err
		}
	}
	return tb.Finish()
}

// loadFact bulk-loads the fact table into db and indexes val.
func loadFact(db *smoothscan.DB, g gen, rows int64) error {
	tb, err := db.CreateTable(factTable, factCols...)
	if err != nil {
		return err
	}
	if err := appendFact(tb, g, rows); err != nil {
		return err
	}
	return db.CreateIndex(factTable, "val")
}

// loadDim bulk-loads the 10k-row dimension table (no index).
func loadDim(db *smoothscan.DB, g gen) error {
	tb, err := db.CreateTable(dimTable, dimCols...)
	if err != nil {
		return err
	}
	r := make([]int64, len(dimCols))
	for d := int64(0); d < dimRows; d++ {
		g.dimRow(d, r)
		if err := tb.Append(r...); err != nil {
			return err
		}
	}
	return tb.Finish()
}

func dbTable(db *smoothscan.DB, name string) tableInfo {
	rows, _ := db.NumRows(name)
	pages, _ := db.NumPages(name)
	return tableInfo{Name: name, Rows: rows, Pages: pages}
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
