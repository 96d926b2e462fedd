package ssclient

import (
	"context"
	"fmt"

	"smoothscan"
	"smoothscan/internal/qspec"
)

// A Conn is a smoothscan.Engine: the same harness code that drives a
// *smoothscan.DB or *smoothscan.ShardedDB drives a remote server by
// swapping in a dialed Conn. Wire-specific capability (SetFetchRows,
// Broken, ServerStats, fault administration) stays on the concrete
// type, as does Summary — Engine code reads ExecStats instead, which
// every backend fills.
var (
	_ smoothscan.Engine = (*Conn)(nil)
	_ smoothscan.Cursor = (*Rows)(nil)
)

// connBuilder is the Builder Conn.Table hands out: the shared builder,
// typed to chain as a smoothscan.Builder.
type connBuilder struct {
	qspec.Builder[smoothscan.Builder]
	c *Conn
}

func (b *connBuilder) Run(ctx context.Context) (smoothscan.Cursor, error) {
	r, err := b.c.run(ctx, qspec.Of(&b.Builder))
	if err != nil {
		return nil, err
	}
	return r, nil
}

// stmtPrepared adapts *Stmt to smoothscan.PreparedQuery.
type stmtPrepared struct{ st *Stmt }

func (p stmtPrepared) Params() []string { return p.st.Params() }
func (p stmtPrepared) Run(ctx context.Context, b smoothscan.Bind) (smoothscan.Cursor, error) {
	r, err := p.st.Run(ctx, b)
	if err != nil {
		return nil, err
	}
	return r, nil
}
func (p stmtPrepared) Close() error { return p.st.Close() }

// Table implements smoothscan.Engine.
func (c *Conn) Table(name string) smoothscan.Builder {
	b := &connBuilder{c: c}
	b.Builder = qspec.NewBuilder[smoothscan.Builder](b, name)
	return b
}

// PrepareQuery implements smoothscan.Engine; the Builder must come
// from this Conn's Table.
func (c *Conn) PrepareQuery(b smoothscan.Builder) (smoothscan.PreparedQuery, error) {
	cb, ok := b.(*connBuilder)
	if !ok || cb.c != c {
		return nil, fmt.Errorf("ssclient: PrepareQuery: builder %T was not created by this connection's Table", b)
	}
	st, err := c.prepare(qspec.Of(&cb.Builder))
	if err != nil {
		return nil, err
	}
	return stmtPrepared{st: st}, nil
}
