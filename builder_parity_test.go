package smoothscan_test

import (
	"context"
	"errors"
	"testing"

	"smoothscan"
	"smoothscan/internal/qspec"
	"smoothscan/internal/server"
	"smoothscan/ssclient"
)

// chain is the builder surface every query type shares: the concrete
// *smoothscan.Query, *smoothscan.ShardedQuery and *ssclient.Query, and
// the Engine-level smoothscan.Builder.
type chain[Q any] interface {
	Where(col string, p smoothscan.Pred) Q
	Select(cols ...string) Q
	GroupBy(col string, aggs ...smoothscan.Agg) Q
	Limit(n any) Q
}

// parityCase is one builder mistake, described as data so the same
// calls replay on every surface.
type parityCase struct {
	name    string
	where   []smoothscan.Pred
	sel     [][]string // one Select call per element
	groupBy bool       // GroupBy("b", aggs...)
	aggs    []smoothscan.Agg
	limit   any // nil: no Limit call
	want    error
}

func replay[Q chain[Q]](q Q, c parityCase) {
	for _, p := range c.where {
		q.Where("b", p)
	}
	for _, s := range c.sel {
		q.Select(s...)
	}
	if c.groupBy {
		q.GroupBy("b", c.aggs...)
	}
	if c.limit != nil {
		q.Limit(c.limit)
	}
}

// TestBuilderErrorParity runs every builder mistake against each query
// surface — *DB, *ShardedDB and an in-process ssclient.Conn, through
// their own builders and through Engine — and requires the same error,
// by errors.Is and by message, from both Run and Prepare.
func TestBuilderErrorParity(t *testing.T) {
	ctx := context.Background()
	db, err := smoothscan.Open(smoothscan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := smoothscan.OpenSharded(2, smoothscan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := db.CreateTable("t", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	stb, err := sdb.CreateShardedTable("t", smoothscan.HashPartitioning("a", 2), "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		if err := tb.Append(i, i%10); err != nil {
			t.Fatal(err)
		}
		if err := stb.Append(i, i%10); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := stb.Finish(); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, err := ssclient.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })

	type surface struct {
		name    string
		run     func(parityCase) error
		prepare func(parityCase) error
	}
	engine := func(name string, e smoothscan.Engine) surface {
		return surface{
			name: name,
			run: func(c parityCase) error {
				b := e.Table("t")
				replay(b, c)
				_, err := b.Run(ctx)
				return err
			},
			prepare: func(c parityCase) error {
				b := e.Table("t")
				replay(b, c)
				_, err := e.PrepareQuery(b)
				return err
			},
		}
	}
	surfaces := []surface{
		{
			name: "DB",
			run: func(c parityCase) error {
				q := db.Query("t")
				replay(q, c)
				_, err := q.Run(ctx)
				return err
			},
			prepare: func(c parityCase) error {
				q := db.Query("t")
				replay(q, c)
				_, err := db.Prepare(q)
				return err
			},
		},
		{
			name: "ShardedDB",
			run: func(c parityCase) error {
				q := sdb.Query("t")
				replay(q, c)
				_, err := q.Run(ctx)
				return err
			},
			prepare: func(c parityCase) error {
				q := sdb.Query("t")
				replay(q, c)
				_, err := sdb.Prepare(q)
				return err
			},
		},
		{
			name: "Conn",
			run: func(c parityCase) error {
				q := conn.Query("t")
				replay(q, c)
				_, err := q.Run(ctx)
				return err
			},
			prepare: func(c parityCase) error {
				q := conn.Query("t")
				replay(q, c)
				_, err := conn.Prepare(q)
				return err
			},
		},
		engine("Engine(DB)", db),
		engine("Engine(ShardedDB)", sdb),
		engine("Engine(Conn)", conn),
	}

	cases := []parityCase{
		{name: "Select set twice", sel: [][]string{{"a"}, {"b"}}, want: qspec.ErrBuild},
		{name: "Select without columns", sel: [][]string{{}}, want: qspec.ErrBuild},
		{name: "GroupBy without aggregates", groupBy: true, want: qspec.ErrBuild},
		{name: "negative Limit", limit: -1, want: qspec.ErrBuild},
		{name: "Eq(string)", where: []smoothscan.Pred{smoothscan.Eq("five")}, want: smoothscan.ErrArgType},
		{name: "Limit(float)", limit: 3.5, want: smoothscan.ErrArgType},
		{name: "overflowing uint64", where: []smoothscan.Pred{smoothscan.Gt(uint64(1) << 63)}, want: smoothscan.ErrArgType},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var msg string
			for _, s := range surfaces {
				for phase, do := range map[string]func(parityCase) error{"Run": s.run, "Prepare": s.prepare} {
					err := do(c)
					if !errors.Is(err, c.want) {
						t.Errorf("%s %s: %v, want %v", s.name, phase, err, c.want)
						continue
					}
					if msg == "" {
						msg = err.Error()
					} else if err.Error() != msg {
						t.Errorf("%s %s: message %q, others say %q", s.name, phase, err, msg)
					}
				}
			}
		})
	}
	if conn.Broken() {
		t.Error("builder errors broke the connection")
	}
}
