package smoothscan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"smoothscan/internal/exec"
	"smoothscan/internal/parallel"
	"smoothscan/internal/plan"
	"smoothscan/internal/qspec"
	"smoothscan/internal/rescache"
	"smoothscan/internal/shard"
	"smoothscan/internal/tuple"
)

// Partitioning describes how a sharded table's rows distribute across
// the shard set: the partition column, a Hash or Range scheme, and the
// shard count. Build one with HashPartitioning or RangePartitioning.
type Partitioning = shard.Partitioning

// HashPartitioning splits a table across n shards by a full-avalanche
// hash of the named column — balanced under any insert order, but
// range predicates wider than a few values fan out to every shard.
func HashPartitioning(column string, n int) Partitioning {
	return Partitioning{Column: column, Scheme: shard.Hash, N: n}
}

// RangePartitioning splits a table by contiguous value ranges of the
// named column: shard 0 owns (-inf, bounds[0]), shard i owns
// [bounds[i-1], bounds[i]), the last shard owns [bounds[n-2], +inf).
// Range predicates on the column prune to the owning shards.
func RangePartitioning(column string, bounds ...int64) Partitioning {
	return Partitioning{Column: column, Scheme: shard.Range, N: len(bounds) + 1, Bounds: bounds}
}

// EqualWidthBounds computes n-1 split points dividing [lo, hi) into n
// near-equal ranges, for RangePartitioning over uniform domains.
func EqualWidthBounds(lo, hi int64, n int) []int64 { return shard.EqualWidthBounds(lo, hi, n) }

// ErrNotSharded is returned (wrapped) when a sharded query touches a
// table that was not created through CreateShardedTable — the planner
// has no Partitioning to route or prune by.
var ErrNotSharded = errors.New("smoothscan: table is not sharded")

// ErrShardJoin is returned when a join cannot execute under sharding:
// more than one join stage where the inputs are not co-partitioned on
// the join keys (a single non-co-partitioned join broadcasts the
// smaller side instead).
var ErrShardJoin = errors.New("smoothscan: join cannot be sharded")

// ShardedDB presents N in-process DB shards behind the one-database
// query API: tables are horizontally partitioned at load time, queries
// scatter to the owning shards (each shard planning — and morphing —
// its access path independently) and gather through an unordered
// fan-in or a k-way ordered merge. With N=1 every query executes
// byte-identically to the unsharded engine, which is what the
// equivalence suite pins.
//
// Concurrency follows DB: any number of queries may run concurrently;
// a ShardedRows is owned by one goroutine.
type ShardedDB struct {
	// shards holds each shard's planning DB: the shard's own embedded
	// engine for in-process topologies, a schema-only catalog mirror
	// for remote ones. The coordinator compiles, prunes and explains
	// against these; drivers decide where execution actually happens.
	shards []*DB
	// drivers execute the per-shard slices, one per shard.
	drivers []ShardDriver
	// remote marks a topology opened with OpenShardedRemote: shards
	// are schema-only mirrors, data lives on the nodes, and load-time
	// mutators are refused.
	remote bool
	// resCache is the coordinator-level result-cache tier: repeated
	// sharded queries are served above scatter-gather with zero shard
	// traffic. nil when Options.ResultCacheBytes leaves the tier
	// disabled. See rescache.go.
	resCache *rescache.Cache
	mu       sync.RWMutex // guards parts
	parts    map[string]shard.Partitioning
}

// errRemoteMutation explains a refused load-time mutator on a remote
// topology.
func errRemoteMutation(op string) error {
	return fmt.Errorf("smoothscan: %s on a remote sharded database (load data on the shard nodes; the coordinator's catalog is read-only)", op)
}

// OpenSharded creates n empty shards, each on its own fresh simulated
// device with its own buffer pool and plan cache (opts applies to
// every shard; PoolPages is per shard).
func OpenSharded(n int, opts Options) (*ShardedDB, error) {
	if n < 1 {
		return nil, fmt.Errorf("smoothscan: shard count %d (want >= 1)", n)
	}
	s := &ShardedDB{parts: map[string]shard.Partitioning{}}
	s.initResultCache(opts)
	for i := 0; i < n; i++ {
		db, err := Open(opts)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, db)
		s.drivers = append(s.drivers, &localDriver{db: db})
	}
	return s, nil
}

// NumShards returns the shard count.
func (s *ShardedDB) NumShards() int { return len(s.shards) }

// Driver returns the i-th shard's driver — for topology inspection
// (ShardDriver carries the shard's kind and address).
func (s *ShardedDB) Driver(i int) ShardDriver { return s.drivers[i] }

// Close releases every shard driver. In-process shards hold no
// external resources (Close is then a no-op); remote shards close
// their server connections. The database is unusable afterwards.
func (s *ShardedDB) Close() error {
	var first error
	for _, d := range s.drivers {
		if err := d.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Shard returns the i-th underlying DB — for per-shard inspection
// (stats, fault injection) in tests and tools.
func (s *ShardedDB) Shard(i int) *DB { return s.shards[i] }

// Partitioning returns the named table's partitioning.
func (s *ShardedDB) Partitioning(table string) (Partitioning, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.parts[table]
	if !ok {
		return Partitioning{}, fmt.Errorf("%w: %q", ErrNotSharded, table)
	}
	return p, nil
}

// ShardedTableBuilder loads rows into a sharded table, routing each
// row to its owning shard by the partition column.
type ShardedTableBuilder struct {
	builders []*TableBuilder
	colIdx   int
	part     shard.Partitioning
}

// CreateShardedTable creates the table on every shard and registers
// its partitioning. The partitioning's shard count must equal the
// database's, and its column must be one of the table's columns.
func (s *ShardedDB) CreateShardedTable(name string, p Partitioning, columns ...string) (*ShardedTableBuilder, error) {
	if s.remote {
		return nil, errRemoteMutation("CreateShardedTable")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.N != len(s.shards) {
		return nil, fmt.Errorf("smoothscan: partitioning over %d shards on a %d-shard database", p.N, len(s.shards))
	}
	colIdx := -1
	for i, c := range columns {
		if c == p.Column {
			colIdx = i
		}
	}
	if colIdx < 0 {
		return nil, fmt.Errorf("smoothscan: partition column %q is not among the table's columns", p.Column)
	}
	builders := make([]*TableBuilder, len(s.shards))
	for i, db := range s.shards {
		tb, err := db.CreateTable(name, columns...)
		if err != nil {
			return nil, err
		}
		builders[i] = tb
	}
	s.mu.Lock()
	s.parts[name] = p
	s.mu.Unlock()
	return &ShardedTableBuilder{builders: builders, colIdx: colIdx, part: p}, nil
}

// Append routes one row to its owning shard.
func (b *ShardedTableBuilder) Append(vals ...int64) error {
	if len(vals) != 0 && b.colIdx >= len(vals) {
		return fmt.Errorf("smoothscan: %d values, partition column at %d", len(vals), b.colIdx)
	}
	if len(vals) == 0 {
		return fmt.Errorf("smoothscan: empty row")
	}
	return b.builders[b.part.Route(vals[b.colIdx])].Append(vals...)
}

// Finish flushes the load on every shard.
func (b *ShardedTableBuilder) Finish() error {
	for _, tb := range b.builders {
		if err := tb.Finish(); err != nil {
			return err
		}
	}
	return nil
}

// CreateIndex builds the index on every shard.
func (s *ShardedDB) CreateIndex(table, column string) error {
	if s.remote {
		return errRemoteMutation("CreateIndex")
	}
	for _, db := range s.shards {
		if err := db.CreateIndex(table, column); err != nil {
			return err
		}
	}
	return nil
}

// Analyze collects statistics on every shard — each shard's optimizer
// sees its own local histograms, so access paths can differ per shard.
func (s *ShardedDB) Analyze(table string, columns ...string) error {
	if s.remote {
		return errRemoteMutation("Analyze")
	}
	for _, db := range s.shards {
		if err := db.Analyze(table, columns...); err != nil {
			return err
		}
	}
	return nil
}

// Insert routes one row to its owning shard.
func (s *ShardedDB) Insert(table string, vals ...int64) error {
	if s.remote {
		return errRemoteMutation("Insert")
	}
	s.mu.RLock()
	p, ok := s.parts[table]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotSharded, table)
	}
	t, err := s.shards[0].table(table)
	if err != nil {
		return err
	}
	col := t.file.Schema().ColIndex(p.Column)
	if col < 0 || col >= len(vals) {
		return fmt.Errorf("smoothscan: %d values for table %q", len(vals), table)
	}
	return s.shards[p.Route(vals[col])].Insert(table, vals...)
}

// Compact compacts every shard's indexes on the table.
func (s *ShardedDB) Compact(table string) error {
	if s.remote {
		return errRemoteMutation("Compact")
	}
	for _, db := range s.shards {
		if err := db.Compact(table); err != nil {
			return err
		}
	}
	return nil
}

// NumRows sums the table's row count across shards. On a remote
// topology the counts are the nodes' catalog snapshots from open time.
func (s *ShardedDB) NumRows(table string) (int64, error) {
	counts, err := s.ShardRows(table)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	return total, nil
}

// ShardRows returns the per-shard row counts of a table, in shard
// order — the load balance ssload reports. On a remote topology the
// counts come from each node's catalog snapshot (the planning mirrors
// hold no rows).
func (s *ShardedDB) ShardRows(table string) ([]int64, error) {
	out := make([]int64, len(s.shards))
	for i, db := range s.shards {
		if rd, ok := s.drivers[i].(*remoteDriver); ok {
			n, known := rd.rows[table]
			if !known {
				return nil, fmt.Errorf("smoothscan: unknown table %q", table)
			}
			out[i] = n
			continue
		}
		n, err := db.NumRows(table)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// Stats sums the device counters across shards.
func (s *ShardedDB) Stats() IOStats {
	var total IOStats
	for _, db := range s.shards {
		total = addIO(total, db.Stats())
	}
	return total
}

// ShardIOStats returns each shard's device counters, in shard order.
func (s *ShardedDB) ShardIOStats() []IOStats {
	out := make([]IOStats, len(s.shards))
	for i, db := range s.shards {
		out[i] = db.Stats()
	}
	return out
}

// ResetStats zeroes every shard's device counters (refused while any
// shard has open scans, like DB.ResetStats).
func (s *ShardedDB) ResetStats() error {
	for _, db := range s.shards {
		if err := db.ResetStats(); err != nil {
			return err
		}
	}
	return nil
}

// ColdCache empties every shard's buffer pool and purges the
// coordinator's result-cache tier (each shard purges its own tier
// inside DB.ColdCache). On a remote topology the request is forwarded
// to each node (the server must run with fault administration enabled,
// as for ssclient's ColdCache).
func (s *ShardedDB) ColdCache() error {
	s.resCache.Purge()
	for i, db := range s.shards {
		if rd, ok := s.drivers[i].(*remoteDriver); ok {
			if err := rd.coldCache(); err != nil {
				return err
			}
			continue
		}
		if err := db.ColdCache(); err != nil {
			return err
		}
	}
	return nil
}

// addIO sums two device-counter snapshots field-wise (shards have
// independent devices, so query deltas across them add).
func addIO(a, b IOStats) IOStats {
	a.Requests += b.Requests
	a.RandomAccesses += b.RandomAccesses
	a.SeqAccesses += b.SeqAccesses
	a.SkippedPages += b.SkippedPages
	a.PagesRead += b.PagesRead
	a.PagesWritten += b.PagesWritten
	a.BytesRead += b.BytesRead
	a.IOTime += b.IOTime
	a.CPUTime += b.CPUTime
	a.Faults += b.Faults
	a.Corruptions += b.Corruptions
	a.LatencySpikes += b.LatencySpikes
	a.Retries += b.Retries
	return a
}

// ShardedQuery is the Query builder over a ShardedDB: the same
// Where/Join/Select/GroupBy/OrderBy/Limit surface, compiled into a
// scatter-gather plan. Builder methods record the first error, like
// Query's. Under sharding, Where predicates on the partition column
// also prune shards; a Join runs partition-wise when the two tables
// are co-partitioned on the join keys, and otherwise broadcasts the
// smaller estimated side to every shard of the other; GroupBy
// aggregates per shard and merges the partials on the coordinator
// (partial COUNTs sum, SUM/MIN/MAX merge with their own function), so
// raw rows never cross the gather; OrderBy without aggregation runs a
// k-way ordered merge of the shards' ordered slices; and Limit without
// aggregation also pushes into every shard.
type ShardedQuery struct {
	qspec.Builder[*ShardedQuery]
	s *ShardedDB
}

// Query starts a composable query over the named sharded table.
func (s *ShardedDB) Query(table string) *ShardedQuery {
	sq := &ShardedQuery{s: s}
	sq.Builder = qspec.NewBuilder(sq, table)
	return sq
}

// perShardSpec is the query each shard runs under the scan and
// partition-wise strategies. Aggregate queries drop OrderBy and Limit
// — shards emit partial groups, and ordering/limiting only make sense
// after the coordinator merges them; everything else (including
// OrderBy and a pushed Limit) runs as-is per shard.
func perShardSpec(q *qspec.Spec) *qspec.Spec {
	cp := *q
	if cp.HasAgg {
		cp.Order, cp.HasOrd = "", false
		cp.Limit, cp.HasLim = Arg{}, false
	}
	return &cp
}

// splitConds routes the Where conjuncts to the one input whose schema
// has the column, mirroring buildTemplate's routing (ambiguity was
// already rejected there).
func splitConds(q *qspec.Spec, pt *plan.Template) [][]qspec.Cond {
	out := make([][]qspec.Cond, len(pt.Inputs))
	for _, c := range q.Conds {
		for i := range pt.Inputs {
			if pt.Inputs[i].Schema.ColIndex(c.Col) >= 0 {
				out[i] = append(out[i], c)
				break
			}
		}
	}
	return out
}

// sideSpec builds the single-table query for one side of a broadcast
// join: that table, its routed conjuncts, its ScanOptions — no
// projection, ordering or limit (those happen above the join).
func sideSpec(q *qspec.Spec, input int, pt *plan.Template) *qspec.Spec {
	opts := q.Opts
	if input > 0 {
		opts = q.Joins[input-1].Opts
	}
	return &qspec.Spec{
		Table: pt.Inputs[input].Table,
		Conds: splitConds(q, pt)[input],
		Opts:  opts,
	}
}

// mergeSpecs derives the coordinator's merge aggregates from the
// per-shard partials: partial COUNTs sum, SUM/MIN/MAX merge with
// their own function. Input column i+1 is aggregate i of the partial
// row (column 0 is the group key).
func mergeSpecs(specs []exec.AggSpec) []exec.AggSpec {
	out := make([]exec.AggSpec, len(specs))
	for i, sp := range specs {
		kind := sp.Kind
		if kind == exec.AggCount {
			kind = exec.AggSum
		}
		out[i] = exec.AggSpec{Name: sp.Name, Col: i + 1, Kind: kind}
	}
	return out
}

// Scatter-gather strategies.
const (
	strategyScan      = "scan"           // no joins: every shard scans its slice
	strategyPartition = "partition-wise" // co-partitioned joins: shard i joins shard i
	strategyBroadcast = "broadcast"      // one join, smaller side replicated to every shard
)

// shardExec is a compiled scatter-gather execution: which shards run,
// why the others don't, what each worker produces, and the coordinator
// stages above the gather.
type shardExec struct {
	pt       *plan.Template
	cq0      *compiledQuery // shard-0 binding: limit, emptyWhy, annotations
	part     shard.Partitioning
	strategy string

	active    []int    // shard indexes that run, ascending
	prunedWhy []string // per shard; "" for active shards

	// Broadcast-join configuration (strategyBroadcast only).
	bcInput    int // the replicated side (0 or 1)
	scanInput  int
	bcPart     shard.Partitioning
	bcActive   []int // broadcast-side shards to read
	scanSchema *tuple.Schema
	bcSchema   *tuple.Schema

	gatherSchema *tuple.Schema
	ordered      bool
	keyCol       int

	// Coordinator stages, in order: project, aggregate, sort, limit.
	selIdx      []int
	aggGroupIdx int
	aggName     string
	aggSpecs    []exec.AggSpec
	aggMerge    bool // merging per-shard partials vs aggregating raw rows
	sortIdx     int
	limit       int64
	hasLim      bool

	out      *tuple.Schema
	emptyWhy string
}

// strategyFor decides the scatter strategy structurally: scan for
// single-table queries; partition-wise when every join stage's keys
// are the partition columns of co-partitioned tables (any join is
// trivially partition-wise at N=1); broadcast for exactly one
// non-co-partitioned join; ErrShardJoin otherwise. Every table must
// be sharded.
func (s *ShardedDB) strategyFor(pt *plan.Template, part shard.Partitioning) (strategy string, parts []shard.Partitioning, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	parts = make([]shard.Partitioning, len(pt.Inputs))
	parts[0] = part
	for i := 1; i < len(pt.Inputs); i++ {
		p, ok := s.parts[pt.Inputs[i].Table]
		if !ok {
			return "", nil, fmt.Errorf("%w: %q", ErrNotSharded, pt.Inputs[i].Table)
		}
		parts[i] = p
	}
	if len(pt.Joins) == 0 {
		return strategyScan, parts, nil
	}
	aligned := map[string]bool{part.Column: true}
	allPW := true
	leftWidth := pt.Inputs[0].Schema.NumCols()
	for k := range pt.Joins {
		jt := &pt.Joins[k]
		rp := parts[k+1]
		rightSchema := pt.Inputs[k+1].Schema
		pw := part.CoPartitioned(rp) &&
			(part.N == 1 || (aligned[jt.LeftName] && jt.RightName == rp.Column))
		if !pw {
			allPW = false
		}
		// The right partition column survives into the joined schema
		// (possibly "r."-prefixed); track it as an aligned key.
		if pw {
			rc := rightSchema.ColIndex(rp.Column)
			if rc >= 0 {
				aligned[jt.Joined.Col(leftWidth+rc).Name] = true
			}
		}
		leftWidth = jt.Joined.NumCols()
	}
	if allPW {
		return strategyPartition, parts, nil
	}
	if len(pt.Joins) == 1 {
		return strategyBroadcast, parts, nil
	}
	return "", nil, fmt.Errorf("%w: %d join stages with non-co-partitioned inputs (broadcast handles one)", ErrShardJoin, len(pt.Joins))
}

// sideEstimate sums one input's post-predicate cardinality estimate
// across shards — the broadcast strategy replicates the smaller side.
func (s *ShardedDB) sideEstimate(qt *qtemplate, input int, lits []int64, b Bind) (int64, error) {
	at := &qt.pt.Inputs[input]
	var total int64
	for _, db := range s.shards {
		db.mu.RLock()
		t, err := db.tableLocked(at.Table)
		if err != nil {
			db.mu.RUnlock()
			return 0, err
		}
		merged := make([]resolvedPred, len(at.Merged))
		for g, group := range at.Merged {
			if merged[g], err = foldGroup(at, group, lits, b); err != nil {
				db.mu.RUnlock()
				return 0, err
			}
		}
		a, err := bindAccess(db, at.Table, t, merged, qt.optsPer[input], "")
		db.mu.RUnlock()
		if err != nil {
			return 0, err
		}
		total += a.estScan
	}
	return total, nil
}

// compileShardExec binds a sharded execution: shard-0 template
// binding (constants, limit, contradiction short-circuits), strategy,
// partition pruning from the folded Where conjuncts, and the gather /
// coordinator configuration.
func (s *ShardedDB) compileShardExec(q *qspec.Spec, qt *qtemplate, lits []int64, b Bind, annotate bool) (*shardExec, error) {
	pt := qt.pt
	s.mu.RLock()
	part, ok := s.parts[q.Table]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotSharded, q.Table)
	}

	shard0 := s.shards[0]
	shard0.mu.RLock()
	cq0, err := shard0.bindTemplate(qt, lits, b, annotate)
	shard0.mu.RUnlock()
	if err != nil {
		return nil, err
	}

	strategy, parts, err := s.strategyFor(pt, part)
	if err != nil {
		return nil, err
	}

	se := &shardExec{
		pt:          pt,
		cq0:         cq0,
		part:        part,
		strategy:    strategy,
		prunedWhy:   make([]string, len(s.shards)),
		keyCol:      -1,
		aggGroupIdx: -1,
		sortIdx:     -1,
		limit:       cq0.limit,
		hasLim:      cq0.hasLim,
		out:         pt.Out,
		emptyWhy:    cq0.emptyWhy,
	}

	condsPer := splitConds(q, pt)

	// Broadcast side selection: replicate the smaller estimated input.
	if strategy == strategyBroadcast {
		est0, err := s.sideEstimate(qt, 0, lits, b)
		if err != nil {
			return nil, err
		}
		est1, err := s.sideEstimate(qt, 1, lits, b)
		if err != nil {
			return nil, err
		}
		se.bcInput, se.scanInput = 1, 0
		if est0 < est1 {
			se.bcInput, se.scanInput = 0, 1
		}
		se.bcPart = parts[se.bcInput]
		se.scanSchema = pt.Inputs[se.scanInput].Schema
		se.bcSchema = pt.Inputs[se.bcInput].Schema
	}

	// Partition pruning: fold each input's conjuncts on its partition
	// column and keep only the shards that can hold matching rows.
	prune := func(p shard.Partitioning, conds []qspec.Cond) {
		pr := qspec.FoldRange(conds, p.Column, b)
		if pr.Lo == math.MinInt64 && pr.Hi == math.MaxInt64 {
			return
		}
		keep := make(map[int]bool, p.N)
		for _, i := range p.Prune(pr.Lo, pr.Hi) {
			keep[i] = true
		}
		next := se.active[:0]
		for _, i := range se.active {
			if keep[i] {
				next = append(next, i)
			} else if se.prunedWhy[i] == "" {
				se.prunedWhy[i] = fmt.Sprintf("%s excludes %s", fmtPred(p.Column, pr), p.DescribeShard(i))
			}
		}
		se.active = next
	}

	if se.emptyWhy == "" {
		se.active = make([]int, len(s.shards))
		for i := range se.active {
			se.active[i] = i
		}
		switch strategy {
		case strategyScan:
			prune(part, condsPer[0])
		case strategyPartition:
			// Co-partitioned: a shard excluded by any input's partition
			// predicate produces no join output there.
			for i := range pt.Inputs {
				prune(parts[i], condsPer[i])
			}
		case strategyBroadcast:
			prune(parts[se.scanInput], condsPer[se.scanInput])
			bcPr := qspec.FoldRange(condsPer[se.bcInput], se.bcPart.Column, b)
			se.bcActive = se.bcPart.Prune(bcPr.Lo, bcPr.Hi)
			if len(se.bcActive) == 0 {
				se.emptyWhy = fmt.Sprintf("broadcast side %q fully pruned", pt.Inputs[se.bcInput].Table)
			}
		}
		if len(se.active) == 0 && se.emptyWhy == "" {
			se.emptyWhy = fmt.Sprintf("every shard pruned by %s predicates", part.Column)
		}
	}
	if se.emptyWhy != "" {
		se.active = nil
		for i := range se.prunedWhy {
			if se.prunedWhy[i] == "" {
				se.prunedWhy[i] = se.emptyWhy
			}
		}
		return se, nil
	}

	// Gather and coordinator configuration.
	hasAgg := pt.GroupIdx >= 0
	switch strategy {
	case strategyScan, strategyPartition:
		if hasAgg {
			// Shards emit partial groups (pt.AggSchema); the coordinator
			// merges them, then orders/limits.
			se.gatherSchema = pt.AggSchema
			se.aggGroupIdx = 0
			se.aggName = pt.AggSchema.Col(0).Name
			se.aggSpecs = mergeSpecs(pt.AggSpecs)
			se.aggMerge = true
			if pt.OrderIdx >= 0 && pt.OrderName != se.aggName {
				se.sortIdx = pt.OrderIdx
			}
		} else {
			// Shards emit final rows (projected, ordered, limited); the
			// coordinator merges and re-limits.
			se.gatherSchema = pt.Out
			if pt.OrderIdx >= 0 {
				se.ordered = true
				se.keyCol = pt.OrderIdx
			}
		}
	case strategyBroadcast:
		// Shards emit raw join output; projection, aggregation and
		// ordering all happen at the coordinator (a join output's
		// per-shard ordering is not usable for a merge).
		se.gatherSchema = pt.Joins[0].Joined
		se.selIdx = pt.SelIdx
		if hasAgg {
			se.aggGroupIdx = pt.GroupIdx
			se.aggName = pt.AggSchema.Col(0).Name
			se.aggSpecs = pt.AggSpecs
			if pt.OrderIdx >= 0 && pt.OrderName != se.aggName {
				se.sortIdx = pt.OrderIdx
			}
		} else if pt.OrderIdx >= 0 {
			se.sortIdx = pt.OrderIdx
		}
	}
	return se, nil
}

// shardRowsOp adapts one shard's cursor to the operator protocol, so
// the parallel gather can drive it as a worker. start is
// deferred to Open — pruned or never-opened shards never construct a
// cursor, hence never touch their device (or network). The op records
// whether its shard failed as unavailable, for ExecStats.Shards.
type shardRowsOp struct {
	schema      *tuple.Schema
	start       func() (shardCursor, error)
	cur         shardCursor
	unavailable bool
}

func (o *shardRowsOp) Schema() *tuple.Schema { return o.schema }

func (o *shardRowsOp) Open() error {
	cur, err := o.start()
	if err != nil {
		return o.noteErr(err)
	}
	o.cur = cur
	return nil
}

func (o *shardRowsOp) NextBatch(b *tuple.Batch) (int, error) {
	n, err := o.cur.fill(b)
	return n, o.noteErr(err)
}

// noteErr flags a shard-unavailable failure on its way out. The flag
// is written by the worker goroutine driving this op and read only
// after the gather has quiesced, the same discipline as the cursor's
// stats.
func (o *shardRowsOp) noteErr(err error) error {
	if err != nil && errors.Is(err, ErrShardUnavailable) {
		o.unavailable = true
	}
	return err
}

func (o *shardRowsOp) Close() error {
	if o.cur == nil {
		return nil
	}
	return o.cur.close()
}

// runnerset supplies the per-shard executions of one run: ad-hoc
// queries or prepared statements, per shard (and per broadcast side).
type runnerset struct {
	planCached bool
	shard      func(ctx context.Context, si int) (shardCursor, error)
	side       func(ctx context.Context, input, si int) (shardCursor, error)
}

// startSharded builds and opens sr's gather tree: one worker per
// active shard feeding the parallel exchange, coordinator stages above
// it. The broadcast side, when present, is drained first and
// replicated into every worker's join.
func (s *ShardedDB) startSharded(ctx context.Context, sr *ShardedRows, run runnerset) error {
	se := sr.se
	count := func(name string, op exec.Operator) exec.Operator {
		c := &opCounter{name: name}
		sr.counters = append(sr.counters, c)
		return &countedOp{inner: op, c: c}
	}

	var cur exec.Operator
	if se.emptyWhy != "" {
		cur = count("empty", exec.NewValues(se.out, nil))
	} else {
		// Broadcast side: drain the replicated input's active shards
		// into memory once, before the workers start.
		var bcRows []tuple.Row
		if se.strategy == strategyBroadcast {
			bcBatch := tuple.NewBatchFor(se.bcSchema, exec.DefaultBatchSize)
			for _, si := range se.bcActive {
				cur, err := run.side(ctx, se.bcInput, si)
				if err != nil {
					return err
				}
				for {
					n, ferr := cur.fill(bcBatch)
					if ferr != nil || n == 0 {
						err = ferr
						break
					}
					for i := 0; i < n; i++ {
						bcRows = append(bcRows, bcBatch.Row(i).Clone())
					}
				}
				if cerr := cur.close(); err == nil {
					err = cerr
				}
				if err != nil {
					return err
				}
			}
		}

		workers := make([]parallel.Worker, 0, len(se.active))
		for _, si := range se.active {
			si := si
			var op exec.Operator
			if se.strategy == strategyBroadcast {
				scanOp := &shardRowsOp{
					schema: se.scanSchema,
					start:  func() (shardCursor, error) { return run.side(ctx, se.scanInput, si) },
				}
				sr.adapters = append(sr.adapters, scanOp)
				vals := exec.NewValues(se.bcSchema, bcRows)
				spec := plan.JoinSpec{
					LeftCol:  se.pt.Joins[0].LeftCol,
					RightCol: se.pt.Joins[0].RightCol,
					Algo:     plan.JoinHash,
					Dev:      s.shards[si].dev,
				}
				if se.bcInput == 0 {
					spec.Left, spec.Right, spec.BuildLeft = vals, exec.Operator(scanOp), true
				} else {
					spec.Left, spec.Right = scanOp, vals
				}
				j, err := plan.BuildJoin(spec)
				if err != nil {
					return err
				}
				op = j
			} else {
				a := &shardRowsOp{
					schema: se.gatherSchema,
					start:  func() (shardCursor, error) { return run.shard(ctx, si) },
				}
				sr.adapters = append(sr.adapters, a)
				op = a
			}
			workers = append(workers, parallel.Worker{Op: op})
		}
		g, err := parallel.NewScan(workers, parallel.Options{
			Schema:  se.gatherSchema,
			Ordered: se.ordered,
			KeyCol:  se.keyCol,
			Ctx:     ctx,
		})
		if err != nil {
			return err
		}
		name := fmt.Sprintf("gather[%d]", len(workers))
		if se.ordered {
			name = fmt.Sprintf("gather-merge[%d]", len(workers))
		}
		cur = count(name, g)
		cur = &ctxGuard{inner: cur, ctx: ctx}
		if se.selIdx != nil {
			p, err := exec.NewColProject(cur, se.selIdx)
			if err != nil {
				return err
			}
			cur = count("project", p)
		}
		if se.aggGroupIdx >= 0 {
			name := "hash-agg"
			if se.aggMerge {
				name = "merge-agg"
			}
			// Coordinator stages run on no device: the per-shard work is
			// already charged to the shard devices, and merging partials
			// is host-side bookkeeping.
			cur = count(name, exec.NewHashAggNamed(cur, nil, se.aggGroupIdx, se.aggName, se.aggSpecs))
		}
		if se.sortIdx >= 0 {
			cur = count("sort", exec.NewSort(cur, nil, se.sortIdx))
		}
		if se.hasLim {
			cur = count("limit", exec.NewLimit(cur, se.limit))
		}
	}

	sr.op = cur
	if err := cur.Open(); err != nil {
		// Blocking coordinator stages already closed the gather beneath
		// them on failure; this sweeps up pass-through stages. Close is
		// idempotent everywhere in the tree.
		_ = cur.Close()
		return err
	}
	return nil
}

// Run compiles and starts the sharded query: scatter to the unpruned
// shards, gather through the exchange. As with Query.Run, always
// Close the returned rows; ctx cancellation propagates to every
// shard's scan.
func (sq *ShardedQuery) Run(ctx context.Context) (*ShardedRows, error) {
	if sq.s == nil {
		return nil, errNoDB
	}
	return sq.s.run(ctx, qspec.Of(&sq.Builder))
}

// Explain compiles the sharded query without executing it: the
// strategy, the pruning decisions, the gather mode, the coordinator
// stages, and each active shard's own compiled plan.
func (sq *ShardedQuery) Explain() (*ShardedPlan, error) {
	if sq.s == nil {
		return nil, errNoDB
	}
	q := qspec.Of(&sq.Builder)
	qt, se, _, err := sq.s.compile(q)
	if err != nil {
		return nil, err
	}
	return sq.s.shardedPlan(se, sq.s.shardPlans(q, qt, se))
}

// compile plans an ad-hoc sharded query: the template through shard
// 0's plan cache, then the scatter-gather binding.
func (s *ShardedDB) compile(q *qspec.Spec) (*qtemplate, *shardExec, bool, error) {
	shard0 := s.shards[0]
	shard0.mu.RLock()
	qt, lits, hit, err := shard0.templateFor(q)
	shard0.mu.RUnlock()
	if err != nil {
		return nil, nil, false, err
	}
	se, err := s.compileShardExec(q, qt, lits, nil, false)
	if err != nil {
		return nil, nil, false, err
	}
	return qt, se, hit, nil
}

// shardPlans renders each active shard's own plan for an ad-hoc query.
func (s *ShardedDB) shardPlans(q *qspec.Spec, qt *qtemplate, se *shardExec) func(si int) (*Plan, error) {
	return func(si int) (*Plan, error) {
		if se.strategy == strategyBroadcast {
			return s.shards[si].explain(sideSpec(q, se.scanInput, qt.pt))
		}
		return s.shards[si].explain(perShardSpec(q))
	}
}

func (s *ShardedDB) run(ctx context.Context, q *qspec.Spec) (*ShardedRows, error) {
	qt, se, hit, err := s.compile(q)
	if err != nil {
		return nil, err
	}
	return s.execute(ctx, se, runnerset{
		planCached: hit,
		shard: func(ctx context.Context, si int) (shardCursor, error) {
			return s.drivers[si].run(ctx, perShardSpec(q))
		},
		side: func(ctx context.Context, input, si int) (shardCursor, error) {
			return s.drivers[si].run(ctx, sideSpec(q, input, qt.pt))
		},
	}, func() (*ShardedPlan, error) { return s.shardedPlan(se, s.shardPlans(q, qt, se)) })
}

// execute is the one execution step behind every sharded run, ad hoc
// and prepared alike: ctx check, I/O window start, the coordinator
// result-cache lookup, then the gather. A cache hit serves the
// materialized result with every shard untouched; a cacheable miss
// captures the epochs before any shard worker starts, so a write
// interleaving with the gather fails the store-time re-check.
func (s *ShardedDB) execute(ctx context.Context, se *shardExec, run runnerset, planFn func() (*ShardedPlan, error)) (*ShardedRows, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sr := &ShardedRows{s: s, se: se, planFn: planFn, ioStart: make([]IOStats, len(s.shards))}
	for i, db := range s.shards {
		sr.ioStart[i] = db.dev.Stats()
	}
	cache := s.cacheableSharded(se)
	if cache {
		if v, ok := s.resCache.Lookup(se.cq0.resKey, s.epochOf); ok {
			sr.stream = cachedStream(ctx, se.cq0, v, run.planCached)
			return sr, nil
		}
	}
	sr.stream = stream{schema: se.out, baseSchema: se.cq0.base, ctx: ctx, planCached: run.planCached}
	if cache {
		sr.acc = newResAccum(se.cq0.resKey, s.epochsFor(se.cq0), s.resCache.EntryCap(), se.out.NumCols())
	}
	if err := s.startSharded(ctx, sr, run); err != nil {
		return nil, err
	}
	return sr, nil
}

// ShardedRows iterates a sharded query result through the same stream
// as Rows: a batched drain of the coordinator tree, one owning
// goroutine, always Close it. Per-shard fault degradation happens
// inside each shard's own Rows (one shard's fault degrades that shard,
// not the query).
type ShardedRows struct {
	stream
	s        *ShardedDB
	se       *shardExec
	adapters []*shardRowsOp
	ioStart  []IOStats
	ioDelta  []IOStats
	planFn   func() (*ShardedPlan, error)
	plan     *ShardedPlan
}

// Close releases the gather (stopping the shard workers) and freezes
// the per-shard I/O deltas. Idempotent, like Rows.Close.
func (r *ShardedRows) Close() error {
	// Workers close their shard Rows before their stream shuts down;
	// the adapter sweep only matters when the gather never opened.
	if !r.shut(r.closeAdapters) {
		return r.closeErr
	}
	r.ioDelta = make([]IOStats, len(r.s.shards))
	for i, db := range r.s.shards {
		r.ioDelta[i] = db.dev.Stats().Sub(r.ioStart[i])
	}
	if r.acc != nil && r.storeEligible() {
		r.acc.store(r.s.resCache, r.s.epochOf)
	}
	return r.closeErr
}

func (r *ShardedRows) closeAdapters() error {
	var first error
	for _, a := range r.adapters {
		if err := a.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Plan returns the compiled scatter-gather plan, rendered lazily on
// first call.
func (r *ShardedRows) Plan() (*ShardedPlan, error) {
	if r.plan == nil && r.planFn != nil {
		p, err := r.planFn()
		if err != nil {
			return nil, err
		}
		r.plan = p
	}
	return r.plan, nil
}

// ShardedStmt is a prepared sharded statement: the structural template
// compiles once (per shard, against each shard's own plan cache); each
// Run re-binds and re-prunes from the bound parameter values, so the
// same statement can touch one shard for a narrow bind and all of them
// for a wide one.
type ShardedStmt struct {
	s         *ShardedDB
	q         *qspec.Spec
	st0       *Stmt // shard 0's statement: template, literals, parameters
	strategy  string
	pstmts    []shardStmt
	sideStmts [2][]shardStmt
}

// Prepare validates and compiles the sharded query's structure into
// per-shard prepared statements plus the scatter template.
func (s *ShardedDB) Prepare(sq *ShardedQuery) (*ShardedStmt, error) {
	if sq == nil || sq.s == nil {
		return nil, fmt.Errorf("smoothscan: Prepare of a nil or detached query")
	}
	if sq.s != s {
		return nil, fmt.Errorf("smoothscan: Prepare of a query built on a different database")
	}
	return s.prepare(qspec.Of(&sq.Builder))
}

func (s *ShardedDB) prepare(q *qspec.Spec) (*ShardedStmt, error) {
	snap := q.Clone()
	st0, err := s.shards[0].prepare(snap)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	part, ok := s.parts[snap.Table]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotSharded, snap.Table)
	}
	pt := st0.qt.pt
	strategy, _, err := s.strategyFor(pt, part)
	if err != nil {
		return nil, err
	}
	st := &ShardedStmt{s: s, q: snap, st0: st0, strategy: strategy}
	if strategy == strategyBroadcast {
		for input := 0; input < 2; input++ {
			for si := range s.shards {
				ps, err := s.drivers[si].prepare(sideSpec(snap, input, pt))
				if err != nil {
					return nil, err
				}
				st.sideStmts[input] = append(st.sideStmts[input], ps)
			}
		}
	} else {
		for si := range s.shards {
			ps, err := s.drivers[si].prepare(perShardSpec(snap))
			if err != nil {
				return nil, err
			}
			st.pstmts = append(st.pstmts, ps)
		}
	}
	return st, nil
}

// Params returns the statement's parameter names in first-use order.
func (st *ShardedStmt) Params() []string { return st.st0.Params() }

// filterBind keeps only the bindings a per-shard statement's own
// parameters use — pushdown drops Limit/OrderBy for aggregates, so a
// sub-statement may have fewer parameters than the full query.
func filterBind(ps *Stmt, b Bind) Bind {
	if len(b) == 0 {
		return nil
	}
	out := make(Bind, len(ps.params))
	for _, p := range ps.params {
		if v, ok := b[p]; ok {
			out[p] = v
		}
	}
	return out
}

// bind checks b against the statement's parameters and binds the
// scatter-gather execution, re-pruning the shard set from the bound
// predicate values.
func (st *ShardedStmt) bind(b Bind) (*shardExec, error) {
	if err := st.st0.checkBind(b); err != nil {
		return nil, err
	}
	return st.s.compileShardExec(st.q, st.st0.qt, st.st0.lits, b, true)
}

// Run binds the parameters, re-prunes the shard set from the bound
// predicate values, and executes. Safe for concurrent use; always
// Close the returned rows.
func (st *ShardedStmt) Run(ctx context.Context, b Bind) (*ShardedRows, error) {
	se, err := st.bind(b)
	if err != nil {
		return nil, err
	}
	// Prepared executions share coordinator result-cache entries with
	// ad-hoc ones (the key is the canonical shape plus the resolved
	// values).
	return st.s.execute(ctx, se, runnerset{
		planCached: true,
		shard: func(ctx context.Context, si int) (shardCursor, error) {
			return st.pstmts[si].run(ctx, b)
		},
		side: func(ctx context.Context, input, si int) (shardCursor, error) {
			return st.sideStmts[input][si].run(ctx, b)
		},
	}, func() (*ShardedPlan, error) { return st.explainWith(se, b) })
}

// Explain binds the parameters and renders the scatter-gather plan
// this execution would run, without touching any device.
func (st *ShardedStmt) Explain(b Bind) (*ShardedPlan, error) {
	se, err := st.bind(b)
	if err != nil {
		return nil, err
	}
	return st.explainWith(se, b)
}

func (st *ShardedStmt) explainWith(se *shardExec, b Bind) (*ShardedPlan, error) {
	return st.s.shardedPlan(se, func(si int) (*Plan, error) {
		if se.strategy == strategyBroadcast {
			return st.sideStmts[se.scanInput][si].explain(b)
		}
		return st.pstmts[si].explain(b)
	})
}

// Close releases the per-shard prepared statements. In-process
// statements hold no external resources; remote ones release their
// server-side handles. Idempotent in effect — closing twice re-closes
// already-released handles harmlessly.
func (st *ShardedStmt) Close() error {
	var first error
	note := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, ps := range st.pstmts {
		note(ps.close())
	}
	for input := 0; input < 2; input++ {
		for _, ps := range st.sideStmts[input] {
			note(ps.close())
		}
	}
	return first
}
