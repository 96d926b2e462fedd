package smoothscan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"smoothscan/internal/client"
	"smoothscan/internal/qspec"
	"smoothscan/internal/tuple"
	"smoothscan/internal/wire"
)

// Placement pins one shard to the network address of the ssserver
// instance that owns its rows (boot the node with
// `ssserver -shard-id i -shard-count n` so it loads exactly that
// slice). The placements passed to OpenShardedRemote are in shard
// order: placements[i] serves shard i of every table's Partitioning.
type Placement struct {
	// Addr is the shard node's address, "host:port".
	Addr string
}

// Tunables of the remote shard driver's connection handling.
const (
	// remoteDialAttempts bounds the dials tried before a shard is
	// declared unavailable.
	remoteDialAttempts = 3
	// remoteDialBackoff is the pause after a failed dial; it doubles
	// per attempt (10ms, 20ms).
	remoteDialBackoff = 10 * time.Millisecond
	// remotePoolCap bounds the idle connections a shard driver keeps.
	remotePoolCap = 8
)

// OpenShardedRemote opens a sharded database whose shards live in
// remote ssserver processes. The returned *ShardedDB serves the exact
// query surface of an in-process one — Query / Prepare / Explain,
// scatter-gather with pruning, per-shard ExecStats — but every shard's
// slice executes on its node and streams back over the wire.
//
// parts maps each sharded table to its Partitioning across the
// placement set (the client-side placement map: routing and pruning
// knowledge lives with the coordinator, data lives with the nodes).
// Each node's table catalog is fetched at open time and mirrored into
// a schema-only planning DB (opts configures those mirrors), so the
// coordinator compiles, prunes and explains exactly as it would
// locally; the mirrors hold no rows, so cost estimates that read table
// sizes are degenerate — of the engine's planning decisions only the
// broadcast-side pick reads them, and either pick returns the same
// rows (the gather is unordered for joins).
//
// A dead node surfaces as ErrShardUnavailable — at open time after
// bounded dial retries, or mid-query when its stream dies and
// reconnection is exhausted. Close the returned database to release
// the per-shard connection pools.
func OpenShardedRemote(placements []Placement, parts map[string]Partitioning, opts Options) (*ShardedDB, error) {
	if len(placements) < 1 {
		return nil, fmt.Errorf("smoothscan: no shard placements")
	}
	for i, p := range placements {
		if p.Addr == "" {
			return nil, fmt.Errorf("smoothscan: placement %d has no address", i)
		}
	}
	for table, p := range parts {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("smoothscan: partitioning of %q: %w", table, err)
		}
		if p.N != len(placements) {
			return nil, fmt.Errorf("smoothscan: partitioning of %q covers %d shards, %d placed", table, p.N, len(placements))
		}
	}
	s := &ShardedDB{remote: true, parts: map[string]Partitioning{}}
	s.initResultCache(opts)
	for t, p := range parts {
		s.parts[t] = p
	}
	ok := false
	defer func() {
		if !ok {
			_ = s.Close()
		}
	}()
	for i, p := range placements {
		d := &remoteDriver{shard: i, addr: p.Addr}
		s.drivers = append(s.drivers, d)
		c, err := d.dial()
		if err != nil {
			return nil, err
		}
		tables, err := c.Catalog()
		if err != nil {
			d.discard(c)
			return nil, fmt.Errorf("smoothscan: shard %d (%s) catalog: %w", i, p.Addr, err)
		}
		d.release(c)
		db, err := catalogMirror(opts, tables)
		if err != nil {
			return nil, fmt.Errorf("smoothscan: shard %d (%s) catalog: %w", i, p.Addr, err)
		}
		d.rows = make(map[string]int64, len(tables))
		for _, t := range tables {
			d.rows[t.Name] = t.Rows
		}
		d.mirror = db
		s.shards = append(s.shards, db)
		for table, part := range parts {
			tab, err := db.table(table)
			if err != nil {
				return nil, fmt.Errorf("smoothscan: shard %d (%s) has no table %q", i, p.Addr, table)
			}
			if tab.file.Schema().ColIndex(part.Column) < 0 {
				return nil, fmt.Errorf("smoothscan: shard %d (%s): table %q has no partition column %q", i, p.Addr, table, part.Column)
			}
		}
	}
	ok = true
	return s, nil
}

// catalogMirror builds the schema-only planning DB for one node: its
// tables and indexes, zero rows.
func catalogMirror(opts Options, tables []wire.TableSpec) (*DB, error) {
	db, err := Open(opts)
	if err != nil {
		return nil, err
	}
	for _, t := range tables {
		tb, err := db.CreateTable(t.Name, t.Cols...)
		if err != nil {
			return nil, err
		}
		if err := tb.Finish(); err != nil {
			return nil, err
		}
		for _, col := range t.Indexed {
			if err := db.CreateIndex(t.Name, col); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// remoteDriver executes one shard's slices on a remote ssserver. It
// keeps a small pool of idle protocol connections — each in-flight
// per-shard stream owns one exclusively (a wire session runs one
// exchange at a time), so a scatter touching the shard k ways uses k
// connections. Dead connections are discarded and re-dialed with
// bounded retry; when the node stays unreachable the error wraps
// ErrShardUnavailable (and the underlying transport error, so
// errors.Is sees both).
type remoteDriver struct {
	shard int
	addr  string
	// mirror is the node's schema-only planning DB: the coordinator
	// half of a prepared statement (parameters, Explain) compiles there.
	mirror *DB
	// rows is the node's per-table row count, snapshotted from its
	// catalog at open time (ShardRows serves it; the mirrors are empty).
	rows map[string]int64

	mu     sync.Mutex
	idle   []*client.Conn
	closed bool
}

func (d *remoteDriver) describe() string { return "remote " + d.addr }
func (d *remoteDriver) address() string  { return d.addr }

// acquire hands out an idle connection or dials a fresh one.
func (d *remoteDriver) acquire() (*client.Conn, error) {
	d.mu.Lock()
	for len(d.idle) > 0 {
		c := d.idle[len(d.idle)-1]
		d.idle = d.idle[:len(d.idle)-1]
		if c.Broken() {
			_ = c.Close()
			continue
		}
		d.mu.Unlock()
		return c, nil
	}
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("%w: shard %d (%s): database closed", ErrShardUnavailable, d.shard, d.addr)
	}
	return d.dial()
}

// dial connects with bounded retry and backoff; exhaustion wraps
// ErrShardUnavailable around the last transport error.
func (d *remoteDriver) dial() (*client.Conn, error) {
	var lastErr error
	for attempt := 0; attempt < remoteDialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(remoteDialBackoff << (attempt - 1))
		}
		c, err := client.Dial(d.addr)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("%w: shard %d (%s): %w", ErrShardUnavailable, d.shard, d.addr, lastErr)
}

// release returns a connection to the idle pool; broken connections
// and pool overflow are closed instead.
func (d *remoteDriver) release(c *client.Conn) {
	if c == nil {
		return
	}
	if c.Broken() {
		_ = c.Close()
		return
	}
	d.mu.Lock()
	if d.closed || len(d.idle) >= remotePoolCap {
		d.mu.Unlock()
		_ = c.Close()
		return
	}
	d.idle = append(d.idle, c)
	d.mu.Unlock()
}

// discard closes a connection without pooling it.
func (d *remoteDriver) discard(c *client.Conn) {
	if c != nil {
		_ = c.Close()
	}
}

// wrapErr classifies an execution error: transport-level failures
// (connection lost, session closed under it) become
// ErrShardUnavailable with the shard identified; everything else —
// typed engine errors shipped in Error frames, context cancellation —
// passes through untouched so errors.Is parity with in-process
// execution holds.
func (d *remoteDriver) wrapErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, client.ErrConnLost) || errors.Is(err, wire.ErrSessionClosed) {
		return fmt.Errorf("%w: shard %d (%s): %w", ErrShardUnavailable, d.shard, d.addr, err)
	}
	return err
}

func (d *remoteDriver) run(ctx context.Context, q *qspec.Spec) (shardCursor, error) {
	spec, err := q.Wire()
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		c, err := d.acquire()
		if err != nil {
			return nil, err
		}
		rows, err := c.RunSpec(ctx, spec)
		if err == nil {
			return newRemoteCursor(d, c, rows), nil
		}
		d.discard(c)
		// A pooled connection may have died idle; retry once fresh.
		if attempt == 0 && errors.Is(err, client.ErrConnLost) {
			continue
		}
		return nil, d.wrapErr(err)
	}
}

func (d *remoteDriver) prepare(q *qspec.Spec) (shardStmt, error) {
	// The local statement — prepared against the shard's schema-only
	// mirror — carries the coordinator-side half: parameter names for
	// bind filtering and checkBind, and Explain. Remote handles are
	// prepared lazily, one per connection actually used.
	local, err := d.mirror.prepare(q)
	if err != nil {
		return nil, err
	}
	spec, err := q.Wire()
	if err != nil {
		return nil, err
	}
	return &remoteStmt{drv: d, local: local, spec: spec, handles: map[*client.Conn]*client.Stmt{}}, nil
}

func (d *remoteDriver) close() error {
	d.mu.Lock()
	idle := d.idle
	d.idle = nil
	d.closed = true
	d.mu.Unlock()
	var first error
	for _, c := range idle {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// coldCache drops the node's buffer-pool contents (the remote
// equivalent of DB.ColdCache), for harnesses that measure cold runs.
func (d *remoteDriver) coldCache() error {
	c, err := d.acquire()
	if err != nil {
		return err
	}
	err = c.ColdCache()
	d.release(c)
	return d.wrapErr(err)
}

// serverStats fetches the node's server counters (ssload uses the
// device-sim-cost delta for per-shard balance reporting).
func (d *remoteDriver) serverStats() (wire.ServerStats, error) {
	c, err := d.acquire()
	if err != nil {
		return wire.ServerStats{}, err
	}
	st, err := c.ServerStats()
	d.release(c)
	return st, d.wrapErr(err)
}

// remoteCursor streams one shard's slice from its node, adapting the
// wire cursor to the shardCursor protocol. The connection is owned for
// the stream's lifetime and returned to the driver pool on close.
type remoteCursor struct {
	drv     *remoteDriver
	conn    *client.Conn
	rows    *client.Rows
	scratch []int64
	closed  bool
}

func newRemoteCursor(d *remoteDriver, c *client.Conn, rows *client.Rows) *remoteCursor {
	return &remoteCursor{drv: d, conn: c, rows: rows, scratch: make([]int64, len(rows.Columns()))}
}

func (rc *remoteCursor) fill(b *tuple.Batch) (int, error) {
	b.Reset()
	for !b.Full() && rc.rows.Next() {
		slot := b.AppendSlotRaw()
		rc.rows.CopyRow(rc.scratch)
		for i, v := range rc.scratch {
			slot.SetInt(i, v)
		}
	}
	if n := b.Len(); n > 0 {
		return n, nil
	}
	return 0, rc.drv.wrapErr(rc.rows.Err())
}

func (rc *remoteCursor) execStats() (ExecStats, bool) {
	sum, ok := rc.rows.Summary()
	if !ok {
		return ExecStats{}, false
	}
	return ExecStats{
		IO:           sum.IO,
		RowsReturned: sum.Rows,
		PlanCacheHit: sum.PlanCacheHit,
		Retries:      sum.Retries,
		FaultsSeen:   sum.FaultsSeen,
		Degraded:     sum.Degraded,
		ResultCache: ResultCacheExec{
			Hit:   sum.ResultCacheHit,
			Bytes: sum.ResultCacheBytes,
			Age:   time.Duration(sum.ResultCacheAgeNs),
		},
	}, true
}

// ioStats: the node's summary is the authority for the shard's I/O
// delta; until it arrives (stream not drained) there is nothing to
// report.
func (rc *remoteCursor) ioStats() (IOStats, bool) {
	sum, ok := rc.rows.Summary()
	if !ok {
		return IOStats{}, false
	}
	return sum.IO, true
}

func (rc *remoteCursor) close() error {
	if rc.closed {
		return nil
	}
	rc.closed = true
	err := rc.rows.Close()
	rc.drv.release(rc.conn)
	return rc.drv.wrapErr(err)
}

// remoteStmt is one shard's prepared statement against a remote node:
// a local statement on the schema-only mirror (parameters, bind
// filtering, Explain) plus lazily-prepared server-side handles, one
// per connection the statement has actually run on. An evicted handle
// (the session's statement table is bounded) is re-prepared
// transparently.
type remoteStmt struct {
	drv   *remoteDriver
	local *Stmt
	spec  wire.QuerySpec

	mu      sync.Mutex
	handles map[*client.Conn]*client.Stmt
}

func (s *remoteStmt) handle(c *client.Conn) (*client.Stmt, error) {
	s.mu.Lock()
	h := s.handles[c]
	s.mu.Unlock()
	if h != nil {
		return h, nil
	}
	h, err := c.PrepareSpec(s.spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.handles[c] = h
	s.mu.Unlock()
	return h, nil
}

func (s *remoteStmt) dropHandle(c *client.Conn) {
	s.mu.Lock()
	delete(s.handles, c)
	s.mu.Unlock()
}

func (s *remoteStmt) run(ctx context.Context, b Bind) (shardCursor, error) {
	bind := filterBind(s.local, b)
	for attempt := 0; ; attempt++ {
		c, err := s.drv.acquire()
		if err != nil {
			return nil, err
		}
		h, err := s.handle(c)
		if err == nil {
			var rows *client.Rows
			rows, err = h.Run(ctx, bind)
			if errors.Is(err, wire.ErrStmtEvicted) {
				// The session LRU-evicted the handle; re-prepare on this
				// connection and retry once.
				s.dropHandle(c)
				if h, err = s.handle(c); err == nil {
					rows, err = h.Run(ctx, bind)
				}
			}
			if err == nil {
				return newRemoteCursor(s.drv, c, rows), nil
			}
		}
		s.dropHandle(c)
		s.drv.discard(c)
		// A pooled connection may have died idle; retry once fresh.
		if attempt == 0 && errors.Is(err, client.ErrConnLost) {
			continue
		}
		return nil, s.drv.wrapErr(err)
	}
}

func (s *remoteStmt) explain(b Bind) (*Plan, error) {
	return s.local.Explain(filterBind(s.local, b))
}

// close drops the handle cache and closes the local statement. No wire
// traffic: the server's per-session statement table is bounded (LRU)
// and handles die with their sessions, so eager remote closes would
// only race pooled connections for no reclaim worth having.
func (s *remoteStmt) close() error {
	s.mu.Lock()
	s.handles = map[*client.Conn]*client.Stmt{}
	s.mu.Unlock()
	return s.local.Close()
}
