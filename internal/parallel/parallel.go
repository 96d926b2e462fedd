// Package parallel implements intra-query parallel scans: a table's
// heap page range is partitioned into P disjoint shards, one
// independently-morphing scan worker runs per shard over the batched
// NextBatch protocol, and the shard streams are merged back into a
// single operator — an unordered fan-in, or a k-way ordered merge when
// the plan needs index-key order.
//
// # Exactly-once
//
// Shards never share heap pages (PartitionPages produces disjoint,
// contiguous page ranges), and a shard worker produces only tuples
// living on its own pages: core.SmoothScan skips index entries whose
// TID falls outside its shard and clamps morphing regions to the shard
// boundary, and access.FullScan simply walks its page subrange. Every
// qualifying tuple therefore belongs to exactly one worker, and the
// per-worker exactly-once guarantees (Page ID / Tuple ID caches)
// compose into a global exactly-once guarantee with no cross-worker
// coordination.
//
// # Ordering
//
// Each ordered Smooth Scan worker emits its shard's tuples in
// (key, TID) order. Because shard page ranges increase with worker
// index, merging streams by key — breaking ties in favour of the
// lowest worker index — reproduces exactly the (key, TID) total order
// of the serial ordered scan.
//
// # Cost accounting
//
// Each worker reads through its own bufferpool view (a private
// disk.Channel), so its sequential shard traversal is classified
// sequential regardless of how the scheduler interleaves workers, and
// its per-tuple CPU charges accumulate locally, off the device mutex,
// until the worker flushes on completion. Device totals after the scan
// are the sum of the per-worker contributions. Relative to a serial
// scan the totals can differ in random-vs-sequential classification
// (each worker pays its own initial seek, and index leaf pages are
// walked once per worker rather than once), never in which heap pages
// are analysed.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"smoothscan/internal/exec"
	"smoothscan/internal/tuple"
)

// ErrClosed is returned by NextBatch before Open or after Close.
var ErrClosed = errors.New("parallel: scan is not open")

// Shard is one worker's disjoint heap page range [PageLo, PageHi).
type Shard struct {
	Index  int
	PageLo int64
	PageHi int64
}

// PartitionPages splits [0, numPages) into min(p, numPages) contiguous,
// disjoint, non-empty shards of near-equal size, in increasing page
// order. With numPages == 0 it returns a single empty shard.
func PartitionPages(numPages int64, p int) []Shard {
	if p < 1 {
		p = 1
	}
	if int64(p) > numPages {
		p = int(numPages)
		if p < 1 {
			p = 1
		}
	}
	shards := make([]Shard, 0, p)
	base, rem := numPages/int64(p), numPages%int64(p)
	lo := int64(0)
	for i := 0; i < p; i++ {
		size := base
		if int64(i) < rem {
			size++
		}
		shards = append(shards, Shard{Index: i, PageLo: lo, PageHi: lo + size})
		lo += size
	}
	return shards
}

// Worker is one shard's scan operator plus its completion hook.
type Worker struct {
	// Op is the shard scan; it is Opened, drained via NextBatch and
	// Closed entirely on the worker's goroutine.
	Op exec.Operator
	// Flush, when non-nil, runs on the worker goroutine after Op is
	// closed — typically the bufferpool view's FlushCPU, folding the
	// worker's deferred simulated-CPU charges into the device totals.
	Flush func()
}

// Options configures a parallel Scan.
type Options struct {
	// Schema describes the rows every worker produces.
	Schema *tuple.Schema
	// Ordered selects the k-way ordered merge (workers must each emit
	// key-ordered rows); false selects the unordered fan-in.
	Ordered bool
	// KeyCol is the merge key column (Ordered only).
	KeyCol int
	// BatchSize is the per-batch row capacity exchanged between
	// workers and the merger (default exec.DefaultBatchSize).
	BatchSize int
	// Ctx, when non-nil, cancels the scan: workers observe
	// cancellation between batches (and while parked on an exchange
	// channel, even with the consumer gone) and exit promptly, and
	// NextBatch returns ctx.Err(). Nil means no cancellation.
	Ctx context.Context
}

// Scan is the merged parallel scan operator, an exec.Operator drained
// through NextBatch.
//
// A Scan (like any operator) must be driven by a single goroutine; the
// parallelism lives behind it.
type Scan struct {
	workers []Worker
	opts    Options

	open bool
	quit chan struct{}
	done <-chan struct{} // opts.Ctx.Done(), nil when no context
	// fail is closed (once) by the first worker that hits an error, so
	// sibling workers parked on an exchange channel stop promptly
	// instead of filling their pipes with results nobody will read —
	// errgroup-style first-error propagation.
	fail     chan struct{}
	failOnce *sync.Once
	// wg is allocated fresh per Open: the fan-in closer goroutine of a
	// previous generation may still be inside Wait when the scan is
	// reopened, and a WaitGroup must not see a new Add concurrently
	// with an old Wait.
	wg   *sync.WaitGroup
	errs chan error
	err  error
	eos  bool

	// Unordered fan-in.
	results chan *tuple.Batch
	free    chan *tuple.Batch
	cur     *tuple.Batch // partially-copied received batch
	curPos  int

	// Ordered k-way merge.
	streams []*stream
}

// stream is one worker's bounded pipe into the ordered merge.
type stream struct {
	ch   chan *tuple.Batch
	free chan *tuple.Batch
	cur  *tuple.Batch
	pos  int
	done bool
}

// NewScan builds a parallel scan over the shard workers. Workers must
// be listed in increasing shard page order for ordered merges to
// reproduce the serial (key, TID) order.
func NewScan(workers []Worker, opts Options) (*Scan, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("parallel: no workers")
	}
	if opts.Schema == nil {
		return nil, fmt.Errorf("parallel: options require a schema")
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = exec.DefaultBatchSize
	}
	if opts.Ordered && (opts.KeyCol < 0 || opts.KeyCol >= opts.Schema.NumCols()) {
		return nil, fmt.Errorf("parallel: merge key column %d out of range", opts.KeyCol)
	}
	return &Scan{workers: workers, opts: opts}, nil
}

// Schema returns the row schema.
func (s *Scan) Schema() *tuple.Schema { return s.opts.Schema }

// Parallelism returns the worker count.
func (s *Scan) Parallelism() int { return len(s.workers) }

// newBatch allocates one exchange batch.
func (s *Scan) newBatch() *tuple.Batch {
	return tuple.NewBatchFor(s.opts.Schema, s.opts.BatchSize)
}

// Open opens every shard operator — concurrently, but Open does not
// return until all have opened or one has failed. An open-time fault
// (a dead index root, say) therefore surfaces from Open itself, where
// the planner's degradation ladder can still rebuild the query; only
// mid-scan and close errors surface later, from NextBatch or Close.
// On an open failure every already-opened operator is closed again and
// no goroutine is left behind.
func (s *Scan) Open() error {
	if s.open {
		return fmt.Errorf("parallel: scan already open")
	}
	p := len(s.workers)
	s.quit = make(chan struct{})
	s.fail = make(chan struct{})
	s.failOnce = &sync.Once{}
	s.done = nil
	if s.opts.Ctx != nil {
		s.done = s.opts.Ctx.Done()
	}
	s.wg = &sync.WaitGroup{}
	s.errs = make(chan error, p)
	s.err = nil
	s.eos = false
	s.cur = nil
	s.curPos = 0

	openErrs := make([]error, p)
	opened := make([]bool, p)
	var owg sync.WaitGroup
	for i := range s.workers {
		owg.Add(1)
		go func(i int) {
			defer owg.Done()
			if err := s.workers[i].Op.Open(); err != nil {
				openErrs[i] = err
			} else {
				opened[i] = true
			}
		}(i)
	}
	owg.Wait()
	for _, openErr := range openErrs {
		if openErr == nil {
			continue
		}
		for i, ok := range opened {
			if ok {
				_ = s.workers[i].Op.Close()
			}
			if s.workers[i].Flush != nil {
				s.workers[i].Flush()
			}
		}
		return openErr
	}

	if s.opts.Ordered {
		s.streams = make([]*stream, p)
		for i := range s.workers {
			st := &stream{
				ch:   make(chan *tuple.Batch, 2),
				free: make(chan *tuple.Batch, 3),
			}
			for j := 0; j < cap(st.free); j++ {
				st.free <- s.newBatch()
			}
			s.streams[i] = st
			s.wg.Add(1)
			go s.runWorker(s.workers[i], s.wg, s.quit, st.free, st.ch, true)
		}
	} else {
		s.results = make(chan *tuple.Batch, 2*p)
		s.free = make(chan *tuple.Batch, 2*p+1)
		for j := 0; j < cap(s.free); j++ {
			s.free <- s.newBatch()
		}
		for i := range s.workers {
			s.wg.Add(1)
			go s.runWorker(s.workers[i], s.wg, s.quit, s.free, s.results, false)
		}
		// Single closer: the fan-in channel has many senders.
		results, wg := s.results, s.wg
		go func() {
			wg.Wait()
			close(results)
		}()
	}
	s.open = true
	return nil
}

// runWorker drains one already-opened shard operator into out,
// recycling batches through free. With ownsOut (ordered mode: out has
// a single sender) the channel is closed when the worker finishes. The
// WaitGroup, quit and fail channels and error sink are passed
// explicitly (or captured before any blocking) so the goroutine stays
// bound to the generation of the Open that spawned it even if the scan
// is closed and reopened.
func (s *Scan) runWorker(w Worker, wg *sync.WaitGroup, quit <-chan struct{}, free <-chan *tuple.Batch, out chan<- *tuple.Batch, ownsOut bool) {
	errs := s.errs
	done := s.done
	fail := s.fail
	failOnce := s.failOnce
	report := func(err error) {
		errs <- err
		failOnce.Do(func() { close(fail) })
	}
	defer wg.Done()
	if w.Flush != nil {
		defer w.Flush()
	}
	if ownsOut {
		defer close(out)
	}
	defer func() {
		if err := w.Op.Close(); err != nil {
			select {
			case errs <- err:
			default:
			}
		}
	}()
	for {
		// Cancellation is checked once per batch (never per tuple): a
		// non-blocking poll here, plus the done/fail arms below that
		// unblock a worker parked on an exchange channel after the
		// consumer has abandoned the scan or a sibling has failed.
		select {
		case <-done:
			return
		case <-fail:
			return
		default:
		}
		var b *tuple.Batch
		select {
		case b = <-free:
		case <-quit:
			return
		case <-done:
			return
		case <-fail:
			return
		}
		n, err := w.Op.NextBatch(b)
		if err != nil {
			report(err)
			return
		}
		if n == 0 {
			return
		}
		select {
		case out <- b:
		case <-quit:
			return
		case <-done:
			return
		case <-fail:
			return
		}
	}
}

// firstErr returns a pending worker error without blocking.
func (s *Scan) firstErr() error {
	select {
	case err := <-s.errs:
		return err
	default:
		return nil
	}
}

// NextBatch fills out with the next merged rows; 0 at end of stream.
func (s *Scan) NextBatch(out *tuple.Batch) (int, error) {
	if !s.open {
		return 0, ErrClosed
	}
	out.Reset()
	if s.err != nil {
		return 0, s.err
	}
	if s.opts.Ctx != nil {
		if err := s.opts.Ctx.Err(); err != nil {
			s.err = err
			return 0, err
		}
	}
	if s.eos {
		return 0, nil
	}
	if err := s.firstErr(); err != nil {
		s.err = err
		return 0, err
	}
	if s.opts.Ordered {
		return s.nextBatchOrdered(out)
	}
	return s.nextBatchUnordered(out)
}

// nextBatchUnordered hands the caller the next worker batch: swapped
// in O(1) when the caller's batch can take it whole, copied flat (and
// possibly split across calls) otherwise.
func (s *Scan) nextBatchUnordered(out *tuple.Batch) (int, error) {
	for {
		if s.cur != nil {
			n := out.AppendRows(s.cur, s.curPos, s.cur.Len()-s.curPos)
			s.curPos += n
			if s.curPos >= s.cur.Len() {
				s.free <- s.cur
				s.cur = nil
			}
			if out.Len() > 0 {
				return out.Len(), nil
			}
		}
		b, ok := <-s.results
		if !ok {
			s.eos = true
			if err := s.firstErr(); err != nil {
				s.err = err
				return 0, err
			}
			return out.Len(), nil
		}
		if out.Len() == 0 && out.TrySwap(b) {
			s.free <- b
			return out.Len(), nil
		}
		s.cur, s.curPos = b, 0
	}
}

// nextBatchOrdered merges the worker streams by key, breaking ties by
// worker index (= shard page order), which reproduces the serial
// ordered scan's (key, TID) order exactly.
func (s *Scan) nextBatchOrdered(out *tuple.Batch) (int, error) {
	for !out.Full() {
		best := -1
		var bestKey int64
		for i, st := range s.streams {
			if err := s.ensure(st); err != nil {
				s.err = err
				return 0, err
			}
			if st.done {
				continue
			}
			k := st.cur.Row(st.pos).Int(s.opts.KeyCol)
			if best < 0 || k < bestKey {
				best, bestKey = i, k
			}
		}
		if best < 0 {
			s.eos = true
			break
		}
		st := s.streams[best]
		out.Append(st.cur.Row(st.pos))
		st.pos++
	}
	return out.Len(), nil
}

// ensure gives the stream a current row (or marks it done), recycling
// drained batches.
func (s *Scan) ensure(st *stream) error {
	for !st.done && (st.cur == nil || st.pos >= st.cur.Len()) {
		if st.cur != nil {
			st.free <- st.cur
			st.cur = nil
		}
		b, ok := <-st.ch
		if !ok {
			st.done = true
			return s.firstErr()
		}
		st.cur, st.pos = b, 0
	}
	return nil
}

// Close stops the workers (cancelling any still running), waits for
// them to finish and releases the exchange buffers. It returns the
// first worker error not yet surfaced through NextBatch, so a failed
// scan closed before being fully drained still reports its failure.
// The scan may be reopened.
func (s *Scan) Close() error {
	if !s.open {
		return nil
	}
	s.open = false
	close(s.quit)
	// Unblock workers parked on a full results/stream channel: the
	// select on quit in runWorker releases them; nothing to drain.
	s.wg.Wait()
	if err := s.firstErr(); err != nil && s.err == nil {
		s.err = err
	}
	s.results = nil
	s.free = nil
	s.streams = nil
	s.cur = nil
	return s.err
}
