package smoothscan

import (
	"context"
	"fmt"
	"time"

	"smoothscan/internal/exec"
	"smoothscan/internal/rescache"
	"smoothscan/internal/tuple"
)

// stream is the result-stream mechanics Rows and ShardedRows share:
// how an operator tree is drained batch by batch, how ctx is checked
// once per refill, how delivered batches are teed toward the result
// cache, how a cache hit is served and how the tree is closed exactly
// once. The owning type adds only what differs between engines: its
// I/O window, its plan and its statistics breakdown.
type stream struct {
	op         exec.Operator
	schema     *tuple.Schema
	baseSchema *tuple.Schema // scanned (or joined) schema, for Column's miss reasons
	ctx        context.Context
	batch      *tuple.Batch
	pos        int
	cur        tuple.Row
	err        error
	counters   []*opCounter
	planCached bool // template reused (plan cache hit or prepared statement)
	delivered  bool // at least one batch handed out
	done       bool
	closed     bool
	closeErr   error // first Close error, replayed by idempotent re-Close

	// recover, when set, gets a chance at an error from the operator
	// tree before it becomes final; true means the tree was replaced
	// and the refill retries (Rows' mid-stream fault degradation).
	recover func(error) bool

	// Result-cache tier state: acc accumulates the stream for a
	// store-on-Close when the execution is cacheable; the cache* fields
	// describe a served hit (surfaced via ExecStats.ResultCache).
	acc        *resAccum
	cacheHit   bool
	cacheBytes int64
	cacheAge   time.Duration
}

// cachedStream opens a stream over a result-cache hit for cq — a pure
// in-memory drain of the materialized rows, with zero device I/O — and
// marks cq as served from the cache for its rendered plan.
func cachedStream(ctx context.Context, cq *compiledQuery, v rescache.View, planCached bool) stream {
	cq.cacheServed = true
	c := &opCounter{name: "result-cache"}
	op := &countedOp{inner: newCachedOp(cq.out, v), c: c}
	_ = op.Open() // cachedOp.Open cannot fail
	return stream{
		op:         op,
		schema:     cq.out,
		baseSchema: cq.base,
		ctx:        ctx,
		counters:   []*opCounter{c},
		planCached: planCached,
		cacheHit:   true,
		cacheBytes: v.Bytes,
		cacheAge:   v.Age,
	}
}

// Next advances to the next row; it returns false at the end of the
// result or on error (check Err).
func (r *stream) Next() bool {
	if r.done || r.err != nil {
		return false
	}
	if r.batch == nil {
		r.batch = tuple.NewBatchFor(r.schema, exec.DefaultBatchSize)
	}
	for r.pos >= r.batch.Len() {
		if n, _ := r.fill(r.batch); n == 0 {
			return false
		}
		r.pos = 0
	}
	r.cur = r.batch.Row(r.pos)
	r.pos++
	return true
}

// fill drains the next batch of the operator tree into b, returning
// the row count; 0 means end-of-stream or the stream's (now final)
// error. Next refills its own batch through it, and the sharded
// gather drives an in-process shard's Rows through it directly into
// the exchange's batch — the shard-to-gather hop stays zero-copy per
// row. A given stream is drained through one of the two, never both.
func (r *stream) fill(b *tuple.Batch) (int, error) {
	if r.done || r.err != nil {
		return 0, r.err
	}
	for {
		// Cancellation is checked once per refill, never per tuple, to
		// keep the per-row path a bounds check.
		if r.ctx != nil {
			if err := r.ctx.Err(); err != nil {
				r.err, r.done = err, true
				return 0, err
			}
		}
		n, err := exec.NextBatch(r.op, b)
		if err != nil {
			if r.recover != nil && r.recover(err) {
				continue
			}
			r.err, r.done = err, true
			return 0, err
		}
		if n == 0 {
			r.done = true
			return 0, nil
		}
		if r.acc != nil {
			r.acc.addBatch(b, n)
		}
		r.delivered = true
		return n, nil
	}
}

// Row returns the current row's values. The slice is valid until the
// next call to Next.
func (r *stream) Row() []int64 {
	out := make([]int64, len(r.cur))
	for i := range r.cur {
		out[i] = r.cur.Int(i)
	}
	return out
}

// CopyRow copies the current row's values into dst and returns the
// number of values copied (the smaller of the row width and len(dst)).
// Unlike Row it allocates nothing, so streaming consumers — the wire
// server's result encoder is the canonical one — can drain a result
// into a reused buffer.
func (r *stream) CopyRow(dst []int64) int {
	n := min(len(r.cur), len(dst))
	for i := 0; i < n; i++ {
		dst[i] = r.cur.Int(i)
	}
	return n
}

// Columns returns the names of the result columns, in output order —
// the schema Select/GroupBy produced, or the table's columns when the
// query projected nothing away.
func (r *stream) Columns() []string {
	out := make([]string, r.schema.NumCols())
	for i := range out {
		out[i] = r.schema.Col(i).Name
	}
	return out
}

// Col returns the current row's value for the named column, reporting
// false when the name does not resolve in the row schema. The false
// return folds two distinct situations together — a column the table
// never had, and one the query projected away via Select or GroupBy;
// use Column when the miss reason matters.
func (r *stream) Col(name string) (int64, bool) {
	i := r.schema.ColIndex(name)
	if i < 0 {
		return 0, false
	}
	return r.cur.Int(i), true
}

// Column returns the current row's value for the named column,
// distinguishing the two miss reasons that Col folds into one false:
// a column the table never had (ErrUnknownColumn) and a column the
// query projected away via Select or GroupBy (ErrNotSelected).
func (r *stream) Column(name string) (int64, error) {
	if i := r.schema.ColIndex(name); i >= 0 {
		return r.cur.Int(i), nil
	}
	if r.baseSchema != nil && r.baseSchema.ColIndex(name) >= 0 {
		return 0, fmt.Errorf("%w: %q (use Select/GroupBy to include it)", ErrNotSelected, name)
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownColumn, name)
}

// Err returns the first error encountered.
func (r *stream) Err() error { return r.err }

// shut closes the operator tree exactly once, then runs sweep (when
// non-nil) for resources the tree may not own. It reports whether this
// call did the closing; later calls do nothing and the owner replays
// closeErr. The first close error is kept, and surfaced through Err
// when iteration itself saw none.
func (r *stream) shut(sweep func() error) bool {
	if r.closed {
		return false
	}
	r.closed = true
	r.closeErr = r.op.Close()
	if sweep != nil {
		if err := sweep(); err != nil && r.closeErr == nil {
			r.closeErr = err
		}
	}
	if r.err == nil && r.closeErr != nil {
		r.err = r.closeErr
	}
	return true
}

// statsTail fills the ExecStats fields every result stream reports the
// same way, from the counters and the already-set st.IO.
func (r *stream) statsTail(st *ExecStats) {
	for _, c := range r.counters {
		st.Operators = append(st.Operators, OperatorStats{Name: c.name, Rows: c.rows, Batches: c.batches})
	}
	if n := len(r.counters); n > 0 {
		st.RowsReturned = r.counters[n-1].rows
	}
	st.PlanCacheHit = r.planCached
	st.ResultCache = ResultCacheExec{Hit: r.cacheHit, Bytes: r.cacheBytes, Age: r.cacheAge}
	st.Retries = st.IO.Retries
	st.FaultsSeen = st.IO.Faults + st.IO.Corruptions + st.IO.LatencySpikes
}
