package smoothscan

import (
	"context"
	"fmt"

	"smoothscan/internal/qspec"
)

// Engine is the execution-surface every smoothscan backend exposes: a
// single-node *DB, a scatter-gather *ShardedDB (in-process or remote
// shards alike) and a remote *ssclient.Conn all implement it. Code
// written against Engine — a test harness, a load driver, an
// application — moves between deployments by swapping the constructor
// and nothing else.
//
//	var e smoothscan.Engine = db // or sharded, or ssclient.Dial(...)
//	cur, err := e.Table("t").Where("val", smoothscan.Between(lo, hi)).Run(ctx)
//
// The interface is the intersection of the three surfaces, not their
// union. Backend-specific capability stays on the concrete types:
// mutation and administration (CreateTable, Insert, Analyze,
// SetFaultPolicy), local-only introspection (Rows.Plan,
// Rows.SmoothStats, ShardedRows.Plan), wire-level control
// (Conn.SetFetchRows, Conn.Broken, Conn.ServerStats) and
// Explain-before-execute. ExecStats is the one diagnostic rich enough
// to keep: every backend fills IO, RowsReturned, PlanCacheHit and the
// fault counters, and the sharded backends add per-shard breakdowns.
type Engine interface {
	// Table starts a composable query over the named table. The
	// builder records errors internally and reports them from Run (or
	// PrepareQuery), like the concrete builders it wraps.
	Table(name string) Builder
	// PrepareQuery compiles a builder made by this engine's Table into
	// a reusable prepared statement. Passing a Builder from a
	// different Engine is an error.
	PrepareQuery(b Builder) (PreparedQuery, error)
	// Close releases the engine: remote connections hang up, sharded
	// engines close their shard drivers, a single-node DB is a no-op.
	Close() error
}

// Builder is the composable query surface shared by every Engine. The
// methods are Query/ShardedQuery/ssclient.Query's own (one shared
// implementation); each call mutates the builder and returns the same
// Builder for chaining.
type Builder interface {
	Where(col string, p Pred) Builder
	Join(table, leftCol, rightCol string) Builder
	JoinWithOptions(table, leftCol, rightCol string, opts ScanOptions) Builder
	Select(cols ...string) Builder
	GroupBy(col string, aggs ...Agg) Builder
	OrderBy(col string) Builder
	Limit(n any) Builder
	WithOptions(opts ScanOptions) Builder
	// Run executes the query and opens a cursor over the results.
	Run(ctx context.Context) (Cursor, error)
}

// Cursor iterates a result stream: the uniform subset of *Rows,
// *ShardedRows and *ssclient.Rows, which all satisfy it directly.
// ExecStats is fully populated once the stream is drained; a remote
// cursor's statistics arrive with the server's closing summary, so
// mid-stream reads return the zero value there.
type Cursor interface {
	Next() bool
	Row() []int64
	Columns() []string
	Err() error
	ExecStats() ExecStats
	Close() error
}

// PreparedQuery is a reusable compiled statement: bind parameters,
// run, repeat. Close releases any backend resources (a server-side
// statement handle remotely; nothing locally).
type PreparedQuery interface {
	Params() []string
	Run(ctx context.Context, b Bind) (Cursor, error)
	Close() error
}

// Compile-time checks that the concrete row types satisfy Cursor and
// the engines satisfy Engine.
var (
	_ Cursor = (*Rows)(nil)
	_ Cursor = (*ShardedRows)(nil)
	_ Engine = (*DB)(nil)
	_ Engine = (*ShardedDB)(nil)
)

// engineBuilder is the Builder every in-process Engine hands out: the
// shared qspec builder, typed to chain as a Builder, plus the engine
// that runs and prepares it.
type engineBuilder struct {
	qspec.Builder[Builder]
	owner Engine
	run   func(ctx context.Context, q *qspec.Spec) (Cursor, error)
}

func newEngineBuilder(owner Engine, table string, run func(context.Context, *qspec.Spec) (Cursor, error)) *engineBuilder {
	b := &engineBuilder{owner: owner, run: run}
	b.Builder = qspec.NewBuilder[Builder](b, table)
	return b
}

func (b *engineBuilder) Run(ctx context.Context) (Cursor, error) {
	return b.run(ctx, qspec.Of(&b.Builder))
}

// specFrom returns the spec of a builder this engine's Table made.
func specFrom(owner Engine, b Builder) (*qspec.Spec, error) {
	eb, ok := b.(*engineBuilder)
	if !ok || eb.owner != owner {
		return nil, fmt.Errorf("smoothscan: PrepareQuery: builder %T was not created by this engine's Table", b)
	}
	return qspec.Of(&eb.Builder), nil
}

// cursor widens a concrete result stream to Cursor, keeping a failed
// run's Cursor a true nil interface.
func cursor[R Cursor](r R, err error) (Cursor, error) {
	if err != nil {
		return nil, err
	}
	return r, nil
}

// statement is the method set *Stmt and *ShardedStmt share, typed by
// their result stream.
type statement[R Cursor] interface {
	Params() []string
	Run(ctx context.Context, b Bind) (R, error)
	Close() error
}

// prepared adapts a concrete statement to PreparedQuery, widening its
// Run to return a Cursor.
type prepared[R Cursor] struct{ statement[R] }

func (p prepared[R]) Run(ctx context.Context, b Bind) (Cursor, error) {
	return cursor(p.statement.Run(ctx, b))
}

// Table implements Engine.
func (db *DB) Table(name string) Builder {
	return newEngineBuilder(db, name, func(ctx context.Context, q *qspec.Spec) (Cursor, error) {
		return cursor(db.run(ctx, q))
	})
}

// PrepareQuery implements Engine; the Builder must come from this
// DB's Table.
func (db *DB) PrepareQuery(b Builder) (PreparedQuery, error) {
	q, err := specFrom(db, b)
	if err != nil {
		return nil, err
	}
	st, err := db.prepare(q)
	if err != nil {
		return nil, err
	}
	return prepared[*Rows]{st}, nil
}

// Close implements Engine. A DB holds no resources beyond its own
// memory, so Close is a no-op kept for surface uniformity — code
// written against Engine can defer e.Close() unconditionally.
func (db *DB) Close() error { return nil }

// Table implements Engine.
func (s *ShardedDB) Table(name string) Builder {
	return newEngineBuilder(s, name, func(ctx context.Context, q *qspec.Spec) (Cursor, error) {
		return cursor(s.run(ctx, q))
	})
}

// PrepareQuery implements Engine; the Builder must come from this
// ShardedDB's Table.
func (s *ShardedDB) PrepareQuery(b Builder) (PreparedQuery, error) {
	q, err := specFrom(s, b)
	if err != nil {
		return nil, err
	}
	st, err := s.prepare(q)
	if err != nil {
		return nil, err
	}
	return prepared[*ShardedRows]{st}, nil
}
