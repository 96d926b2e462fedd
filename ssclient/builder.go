package ssclient

import (
	"context"

	"smoothscan"
	"smoothscan/internal/qspec"
)

// The remote query builder is the engine's own: Query embeds the same
// qspec.Builder that smoothscan.Query and smoothscan.ShardedQuery
// embed, so the Where / Join / Select / GroupBy / OrderBy / Limit /
// WithOptions call sites — with the same predicate, aggregate and
// Param types — compile against a *smoothscan.DB, a
// *smoothscan.ShardedDB or a *ssclient.Conn. At Run/Prepare the query
// serialises to a wire spec; all semantic validation (unknown tables
// and columns, ambiguous conjuncts) happens server-side, where the
// schema lives, while builder-level mistakes (bad argument types,
// Select set twice) are recorded by the shared builder and reported
// from Run/Prepare — the same error-channel contract as the embedded
// engine.

// Aliases for the engine's argument, predicate and aggregate types.
// New code can use the smoothscan package directly; these keep
// existing ssclient call sites compiling unchanged.
type (
	// Arg is one predicate or Limit argument: an integer literal or a
	// Param placeholder.
	Arg = smoothscan.Arg
	// Pred is a predicate on one integer column.
	Pred = smoothscan.Pred
	// Agg is an aggregate expression for Query.GroupBy.
	Agg = smoothscan.Agg
)

// Param is a named placeholder usable anywhere a literal goes, exactly
// as with smoothscan.Param; a query containing parameters must be
// compiled with Conn.Prepare.
func Param(name string) Arg { return smoothscan.Param(name) }

// Between matches lo <= v < hi.
func Between(lo, hi any) Pred { return smoothscan.Between(lo, hi) }

// Eq matches v == x.
func Eq(x any) Pred { return smoothscan.Eq(x) }

// Lt matches v < x.
func Lt(x any) Pred { return smoothscan.Lt(x) }

// Le matches v <= x.
func Le(x any) Pred { return smoothscan.Le(x) }

// Gt matches v > x.
func Gt(x any) Pred { return smoothscan.Gt(x) }

// Ge matches v >= x.
func Ge(x any) Pred { return smoothscan.Ge(x) }

// Sum aggregates the sum of col per group.
func Sum(col string) Agg { return smoothscan.Sum(col) }

// Count counts the rows of each group.
func Count() Agg { return smoothscan.Count() }

// Min aggregates the minimum of col per group.
func Min(col string) Agg { return smoothscan.Min(col) }

// Max aggregates the maximum of col per group.
func Max(col string) Agg { return smoothscan.Max(col) }

// Query is a remote query under construction. Build one with
// Conn.Query, chain the builder methods, then Run it (ad hoc) or
// Prepare it into a Stmt.
type Query struct {
	qspec.Builder[*Query]
	c *Conn
}

// Query starts a composable query over the named server-side table.
func (c *Conn) Query(table string) *Query {
	q := &Query{c: c}
	q.Builder = qspec.NewBuilder(q, table)
	return q
}

// Run executes the query ad hoc (literals inline) and opens a result
// stream. Parameterized queries must go through Prepare.
func (q *Query) Run(ctx context.Context) (*Rows, error) {
	return q.c.run(ctx, qspec.Of(&q.Builder))
}

func (c *Conn) run(ctx context.Context, q *qspec.Spec) (*Rows, error) {
	spec, err := q.Wire()
	if err != nil {
		return nil, err
	}
	r, err := c.Conn.RunSpec(ctx, spec)
	if err != nil {
		return nil, err
	}
	return &Rows{Rows: r}, nil
}
