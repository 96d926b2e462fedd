package smoothscan

import (
	"context"
	"errors"

	"smoothscan/internal/qspec"
	"smoothscan/internal/tuple"
)

// ErrShardUnavailable is returned (wrapped) when a shard cannot serve
// its slice of a sharded query: a remote shard node is unreachable, or
// its connection died mid-stream and the bounded reconnect budget was
// exhausted. The failing shard is identified in the wrapping message
// and flagged in ExecStats.Shards ([ShardStats].Unavailable); the
// other shards' work is cancelled cleanly, never leaked.
var ErrShardUnavailable = errors.New("smoothscan: shard unavailable")

// ShardDriver executes one shard's slice of a sharded query. ShardedDB
// holds one driver per shard: the in-process driver runs against the
// shard's own embedded DB; the remote driver ships the query over the
// wire to an ssserver instance. The interface is deliberately narrow —
// run a query, prepare a statement, identify yourself — so the
// scatter-gather machinery above it is identical for both.
//
// The methods are unexported: drivers are constructed only by
// OpenSharded (in-process) and OpenShardedRemote (remote); the type is
// exported so topology-aware callers can name it.
type ShardDriver interface {
	// describe labels the driver kind ("in-process", "remote <addr>")
	// for stats and plan rendering.
	describe() string
	// address is the shard's network address; "" for in-process shards.
	address() string
	// run executes q — the shard's slice of the query — and opens
	// its cursor.
	run(ctx context.Context, q *qspec.Spec) (shardCursor, error)
	// prepare compiles q into a per-shard prepared statement.
	prepare(q *qspec.Spec) (shardStmt, error)
	// close releases the driver's resources (remote: its connections).
	close() error
}

// shardCursor is one shard's result stream, the driver-neutral face of
// a *Rows (in-process) or a wire stream (remote). The gather exchange
// drives it as an operator through shardRowsOp; the broadcast join's
// build drain calls fill directly.
type shardCursor interface {
	// fill appends rows into b, returning the count; 0 means
	// end-of-stream or error.
	fill(b *tuple.Batch) (int, error)
	// execStats reports the shard execution's statistics; ok is false
	// while a remote stream has not yet received its closing summary.
	execStats() (ExecStats, bool)
	// ioStats reports the shard's I/O delta when the cursor itself is
	// the authority (remote: the summary shipped over the wire); ok is
	// false for in-process cursors, whose I/O is read from the shard
	// device directly.
	ioStats() (IOStats, bool)
	// close releases the stream. Idempotent.
	close() error
}

// shardStmt is one shard's prepared statement. run and explain take
// the full sharded bind set and filter it down to the statement's own
// parameters (pushdown drops Limit/OrderBy for aggregates, so a
// sub-statement may use fewer parameters than the full query).
type shardStmt interface {
	run(ctx context.Context, b Bind) (shardCursor, error)
	explain(b Bind) (*Plan, error)
	close() error
}

// localDriver runs a shard's queries against its in-process DB — the
// only driver kind before remote topologies, and still the N=1
// equivalence baseline: its cursor forwards fill and close verbatim,
// so a local sharded execution is byte-identical to the pre-driver
// engine.
type localDriver struct {
	db *DB
}

func (d *localDriver) describe() string { return "in-process" }
func (d *localDriver) address() string  { return "" }

func (d *localDriver) run(ctx context.Context, q *qspec.Spec) (shardCursor, error) {
	rows, err := d.db.run(ctx, q)
	if err != nil {
		return nil, err
	}
	return &localCursor{rows: rows}, nil
}

func (d *localDriver) prepare(q *qspec.Spec) (shardStmt, error) {
	st, err := d.db.prepare(q)
	if err != nil {
		return nil, err
	}
	return &localStmt{st: st}, nil
}

func (d *localDriver) close() error { return nil }

// localCursor adapts a *Rows to the shardCursor protocol.
type localCursor struct {
	rows *Rows
}

func (c *localCursor) fill(b *tuple.Batch) (int, error) { return c.rows.fill(b) }

func (c *localCursor) execStats() (ExecStats, bool) { return c.rows.ExecStats(), true }

// ioStats defers to the shard device: an in-process shard's I/O delta
// is read off the device counters by the coordinator, exactly as the
// unsharded engine does.
func (c *localCursor) ioStats() (IOStats, bool) { return IOStats{}, false }

func (c *localCursor) close() error { return c.rows.Close() }

// localStmt adapts a *Stmt to the shardStmt protocol.
type localStmt struct {
	st *Stmt
}

func (s *localStmt) run(ctx context.Context, b Bind) (shardCursor, error) {
	rows, err := s.st.Run(ctx, filterBind(s.st, b))
	if err != nil {
		return nil, err
	}
	return &localCursor{rows: rows}, nil
}

func (s *localStmt) explain(b Bind) (*Plan, error) {
	return s.st.Explain(filterBind(s.st, b))
}

func (s *localStmt) close() error { return s.st.Close() }
