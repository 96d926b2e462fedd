// Package core implements Smooth Scan, the paper's contribution: a
// statistics-oblivious access path that morphs continuously between a
// non-clustered index look-up and a full table scan as its run-time
// understanding of the operator's selectivity evolves (Section III).
//
// The operator follows the index leaf entries in key order, like an
// index scan, but instead of fetching single tuples it analyses whole
// heap pages (Mode 1, Entire Page Probe) and, as observed selectivity
// grows, whole morphing regions of adjacent pages (Mode 2+, Flattening
// Access) whose size expands and — under the Elastic policy — shrinks
// with the local result density. Bookkeeping structures (Page ID
// cache, Tuple ID cache, Result Cache) guarantee every qualifying
// tuple is produced exactly once, and in index-key order when the plan
// requires it.
package core

import (
	"errors"
	"fmt"

	"smoothscan/internal/bitmap"
	"smoothscan/internal/btree"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/costmodel"
	"smoothscan/internal/heap"
	"smoothscan/internal/simcost"
	"smoothscan/internal/tuple"
)

// Policy selects how the morphing region evolves (Section III-B).
type Policy int

const (
	// Elastic morphs two ways: it doubles in dense regions and halves
	// in sparse ones, exploiting skew as an opportunity. It is the
	// paper's recommended policy and therefore the zero value.
	Elastic Policy = iota
	// Greedy doubles the morphing region after every index probe,
	// converging to a full scan as fast as possible.
	Greedy
	// SelectivityIncrease doubles the region when the local
	// selectivity of the last region reaches the global selectivity,
	// and otherwise keeps the current size (a ratchet).
	SelectivityIncrease
)

func (p Policy) String() string {
	switch p {
	case Greedy:
		return "greedy"
	case SelectivityIncrease:
		return "selectivity-increase"
	case Elastic:
		return "elastic"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Trigger selects when morphing starts (Section III-C).
type Trigger int

const (
	// Eager replaces the access path entirely: Smooth Scan behaviour
	// from the very first tuple. The paper's default.
	Eager Trigger = iota
	// OptimizerDriven starts as a classic index scan and morphs once
	// the produced cardinality exceeds the optimizer's estimate.
	OptimizerDriven
	// SLADriven starts as a classic index scan and morphs at the
	// cardinality beyond which, per the Section V cost model, a
	// worst-case (100% selectivity) completion could no longer meet
	// the configured SLA bound.
	SLADriven
)

func (t Trigger) String() string {
	switch t {
	case Eager:
		return "eager"
	case OptimizerDriven:
		return "optimizer-driven"
	case SLADriven:
		return "sla-driven"
	default:
		return fmt.Sprintf("Trigger(%d)", int(t))
	}
}

// Mode identifies the operator's execution mode (Section III-A).
type Mode int

const (
	// ModeIndex (Mode 0) is classic index-scan behaviour before a
	// non-eager trigger fires.
	ModeIndex Mode = iota
	// ModeEntirePage (Mode 1) analyses every record of each heap page
	// it loads.
	ModeEntirePage
	// ModeFlattening (Mode 2+) additionally fetches an expanding
	// region of adjacent pages per probe.
	ModeFlattening
)

func (m Mode) String() string {
	switch m {
	case ModeIndex:
		return "index(0)"
	case ModeEntirePage:
		return "entire-page-probe(1)"
	case ModeFlattening:
		return "flattening(2+)"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DefaultMaxRegionPages caps the morphing region at 2K pages (16 MB of
// 8 KB pages) — the value the paper's sensitivity analysis found
// optimal (Section VI-D).
const DefaultMaxRegionPages = 2048

// Config configures a SmoothScan.
type Config struct {
	// Policy is the morphing policy; the paper favours Elastic.
	Policy Policy
	// Trigger is the morphing trigger; the paper favours Eager.
	Trigger Trigger
	// Ordered preserves index-key output order using the Result
	// Cache. Leave false when no operator upstream needs the order;
	// extra qualifying tuples are then emitted as soon as found.
	Ordered bool
	// MaxRegionPages caps the morphing region (default 2048).
	MaxRegionPages int64
	// MaxMode caps morphing: ModeEntirePage reproduces the paper's
	// "Entire Page Probe only" sensitivity configuration (Figure 6).
	// Zero value means no cap (ModeFlattening).
	MaxMode Mode
	// EstimatedCard is the optimizer's cardinality estimate, used by
	// the OptimizerDriven trigger.
	EstimatedCard int64
	// SLABound is the operator cost bound (in I/O cost units) for the
	// SLADriven trigger.
	SLABound float64
	// CostParams parameterises the Section V cost model for the
	// SLADriven trigger. Required when Trigger == SLADriven.
	CostParams costmodel.Params
	// ResultCacheBudget bounds the ordered variant's Result Cache
	// resident memory in bytes; beyond it, the partitions furthest
	// from the current key range spill to simulated overflow files
	// (Section IV-A). Zero means unlimited.
	ResultCacheBudget int64
	// Residual holds extra conjunctive predicates pushed into page
	// analysis (heap.DecodeBatchMatching and the Mode 0 probes): tuples
	// failing any of them are examined but never produced, so a
	// multi-predicate plan materialises only its final matches.
	// Residual conjuncts must not reference the indexed column (fold
	// those into Pred instead) and are incompatible with Ordered — the
	// ordered Result Cache's invariants assume every index entry in the
	// key range is eventually produced.
	Residual []tuple.RangePred
	// PageLo/PageHi restrict the scan to the heap pages [PageLo,
	// PageHi): index entries pointing outside the range are skipped and
	// morphing regions never extend past PageHi. A parallel scan gives
	// each worker one disjoint page shard, so every heap page is
	// analysed by exactly one worker and the exactly-once guarantee
	// holds across workers by construction. Both zero means the whole
	// file.
	PageLo int64
	PageHi int64
}

// Stats exposes the operator's run-time counters, the raw material of
// Figures 6–9.
type Stats struct {
	// Produced is the number of result tuples returned.
	Produced int64
	// PagesFetched counts heap pages fetched and analysed by the
	// morphing modes (each exactly once, thanks to the Page ID cache).
	PagesFetched int64
	// PagesWithResults counts fetched pages that contained at least
	// one qualifying tuple; PagesWithResults/PagesFetched is the
	// morphing accuracy of Figure 9b.
	PagesWithResults int64
	// LeafPointersSkipped counts index entries skipped because their
	// page had already been analysed (the ✕ marks of Figure 3).
	LeafPointersSkipped int64
	// Expansions and Shrinks count morphing-region size changes.
	Expansions int64
	Shrinks    int64
	// PeakRegionPages is the largest morphing region used.
	PeakRegionPages int64
	// TriggeredAt is the produced-cardinality at which morphing began
	// (0 for Eager; -1 if a non-eager trigger never fired).
	TriggeredAt int64
	// CacheHits / CacheInserts / DirectReturns instrument the Result
	// Cache (ordered mode): hit rate = CacheHits / (CacheHits +
	// DirectReturns), Figure 9a.
	CacheHits     int64
	CacheInserts  int64
	DirectReturns int64
	// CachePeakTuples / CachePeakBytes are the Result Cache high-water
	// marks (the "couple of MB" discussion of Section IV-A).
	CachePeakTuples int64
	CachePeakBytes  int64
	// Spill instruments Result Cache overflow-file activity when a
	// ResultCacheBudget is configured.
	Spill SpillStats
	// PageCacheBytes and TupleCacheBytes are the bitmap footprints.
	PageCacheBytes  int64
	TupleCacheBytes int64
}

// AggregateStats combines per-worker Smooth Scan stats into query
// totals: counters are summed, peaks are summed for the Result Cache
// (workers' caches coexist) but maxed for the morphing region (regions
// are per-worker), and TriggeredAt is the earliest worker trigger (-1
// when no worker's trigger fired).
func AggregateStats(parts []Stats) Stats {
	out := Stats{TriggeredAt: -1}
	for _, p := range parts {
		out.Produced += p.Produced
		out.PagesFetched += p.PagesFetched
		out.PagesWithResults += p.PagesWithResults
		out.LeafPointersSkipped += p.LeafPointersSkipped
		out.Expansions += p.Expansions
		out.Shrinks += p.Shrinks
		if p.PeakRegionPages > out.PeakRegionPages {
			out.PeakRegionPages = p.PeakRegionPages
		}
		if p.TriggeredAt >= 0 && (out.TriggeredAt < 0 || p.TriggeredAt < out.TriggeredAt) {
			out.TriggeredAt = p.TriggeredAt
		}
		out.CacheHits += p.CacheHits
		out.CacheInserts += p.CacheInserts
		out.DirectReturns += p.DirectReturns
		out.CachePeakTuples += p.CachePeakTuples
		out.CachePeakBytes += p.CachePeakBytes
		out.Spill.Spills += p.Spill.Spills
		out.Spill.Reloads += p.Spill.Reloads
		out.Spill.SpillBytes += p.Spill.SpillBytes
		out.Spill.ReloadBytes += p.Spill.ReloadBytes
		out.PageCacheBytes += p.PageCacheBytes
		out.TupleCacheBytes += p.TupleCacheBytes
	}
	return out
}

// MorphingAccuracy returns PagesWithResults/PagesFetched (Figure 9b),
// or 0 when nothing was fetched.
func (s Stats) MorphingAccuracy() float64 {
	if s.PagesFetched == 0 {
		return 0
	}
	return float64(s.PagesWithResults) / float64(s.PagesFetched)
}

// CacheHitRate returns the Result Cache hit rate (Figure 9a).
func (s Stats) CacheHitRate() float64 {
	total := s.CacheHits + s.DirectReturns
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// ErrClosed is returned by NextBatch before Open or after Close.
var ErrClosed = errors.New("core: smooth scan is not open")

// SmoothScan is the morphing access-path operator. It produces exactly
// the tuples of its table matching the range predicate on the indexed
// column, each exactly once, in index-key order when Ordered is set.
type SmoothScan struct {
	file *heap.File
	pool *bufferpool.Pool
	tree *btree.Tree
	pred tuple.RangePred
	cfg  Config

	open     bool
	done     bool // index exhausted or key bound passed; latched
	sharded  bool // page shard narrower than the file (parallel worker)
	mode     Mode
	it       *btree.Iter
	pageSeen *bitmap.Bitmap // Page ID cache
	tupSeen  *bitmap.Bitmap // Tuple ID cache (non-eager triggers only)
	cache    *spillingCache // ordered mode only
	queue    *tuple.Batch   // unordered mode: pending region tuples, flat
	queuePos int
	runBuf   [][]byte  // GetRun scratch, reused across regions
	scratch  tuple.Row // per-slot decode scratch (ordered/tupSeen paths)

	regionPages int64 // current morphing region size
	triggerCard int64 // produced-count threshold for non-eager triggers

	// Policy state: global counters exclude the current region.
	globalPagesSeen    int64
	globalPagesWithRes int64

	stats Stats
}

// NewSmoothScan creates a Smooth Scan over file using the secondary
// index tree, which must index pred.Col.
func NewSmoothScan(file *heap.File, pool *bufferpool.Pool, tree *btree.Tree, pred tuple.RangePred, cfg Config) (*SmoothScan, error) {
	if cfg.MaxRegionPages == 0 {
		cfg.MaxRegionPages = DefaultMaxRegionPages
	}
	if cfg.MaxRegionPages < 1 {
		return nil, fmt.Errorf("core: MaxRegionPages %d < 1", cfg.MaxRegionPages)
	}
	if cfg.PageLo == 0 && cfg.PageHi == 0 {
		cfg.PageHi = file.NumPages()
	}
	if cfg.PageLo < 0 || cfg.PageLo > cfg.PageHi || cfg.PageHi > file.NumPages() {
		return nil, fmt.Errorf("core: page shard [%d,%d) outside file of %d pages",
			cfg.PageLo, cfg.PageHi, file.NumPages())
	}
	sharded := cfg.PageLo > 0 || cfg.PageHi < file.NumPages()
	if cfg.Ordered && len(cfg.Residual) > 0 {
		return nil, fmt.Errorf("core: residual predicates are incompatible with ordered delivery; filter above the scan instead")
	}
	if cfg.MaxMode == ModeIndex {
		cfg.MaxMode = ModeFlattening
	}
	switch cfg.Policy {
	case Elastic, Greedy, SelectivityIncrease:
	default:
		return nil, fmt.Errorf("core: unknown policy %d", cfg.Policy)
	}
	switch cfg.Trigger {
	case Eager:
	case OptimizerDriven:
		if cfg.EstimatedCard < 0 {
			return nil, fmt.Errorf("core: negative cardinality estimate")
		}
	case SLADriven:
		if err := cfg.CostParams.Validate(); err != nil {
			return nil, fmt.Errorf("core: SLA trigger: %w", err)
		}
		if cfg.SLABound <= 0 {
			return nil, fmt.Errorf("core: SLA trigger requires a positive bound")
		}
	default:
		return nil, fmt.Errorf("core: unknown trigger %d", cfg.Trigger)
	}
	return &SmoothScan{file: file, pool: pool, tree: tree, pred: pred, cfg: cfg, sharded: sharded}, nil
}

// Schema returns the table schema.
func (s *SmoothScan) Schema() *tuple.Schema { return s.file.Schema() }

// Stats returns a snapshot of the operator counters.
func (s *SmoothScan) Stats() Stats {
	st := s.stats
	if s.cache != nil {
		st.CachePeakTuples = s.cache.peakTuples
		st.CachePeakBytes = s.cache.peakBytes
		st.Spill = s.cache.stats()
	}
	return st
}

// CurrentMode returns the operator's current execution mode.
func (s *SmoothScan) CurrentMode() Mode { return s.mode }

// RegionPages returns the current morphing-region size in pages.
func (s *SmoothScan) RegionPages() int64 { return s.regionPages }

// Open positions the scan at the first qualifying index entry.
func (s *SmoothScan) Open() error {
	it, err := s.tree.SeekGE(s.pool, s.pred.Lo)
	if err != nil {
		return fmt.Errorf("smooth scan: %w", err)
	}
	s.it = it
	s.done = false
	s.stats = Stats{TriggeredAt: -1}
	s.pageSeen = bitmap.New(s.file.NumPages())
	s.stats.PageCacheBytes = s.pageSeen.MemoryBytes()
	s.regionPages = 1
	if s.queue == nil {
		s.queue = tuple.NewGrowableBatch(s.file.Schema().NumCols())
	}
	s.queue.Reset()
	s.queuePos = 0
	s.scratch = tuple.NewRow(s.file.Schema())
	s.globalPagesSeen = 0
	s.globalPagesWithRes = 0

	switch s.cfg.Trigger {
	case Eager:
		s.mode = ModeEntirePage
		s.triggerCard = 0
		s.stats.TriggeredAt = 0
	case OptimizerDriven:
		s.mode = ModeIndex
		s.triggerCard = s.cfg.EstimatedCard
	case SLADriven:
		s.mode = ModeIndex
		s.triggerCard = s.cfg.CostParams.SLATriggerCard(s.cfg.SLABound)
	}
	if s.mode == ModeIndex {
		s.tupSeen = bitmap.New(s.file.NumTuples())
		s.stats.TupleCacheBytes = s.tupSeen.MemoryBytes()
	}
	if s.cfg.Ordered {
		bounds, err := s.tree.RootKeys(s.pool)
		if err != nil {
			return fmt.Errorf("smooth scan: %w", err)
		}
		rc := newResultCache(bounds, s.file.Schema().NumCols())
		s.cache = newSpillingCache(rc, s.pool.Channel(), s.cfg.ResultCacheBudget)
	}
	s.open = true
	return nil
}

// Close releases the scan. Statistics (including Result Cache peaks)
// remain readable after Close; the region queue's buffer is kept for
// reuse by a later Open.
func (s *SmoothScan) Close() error {
	s.open = false
	s.it = nil
	return nil
}

func (s *SmoothScan) tidBit(tid heap.TID) int64 {
	return tid.Page*int64(s.file.TuplesPerPage()) + int64(tid.Slot)
}

// NextBatch fills out with the next qualifying tuples. Whole regions
// flow from the queue into the caller's batch as flat copies, so the
// morphing fast path allocates nothing per tuple.
func (s *SmoothScan) NextBatch(out *tuple.Batch) (int, error) {
	if !s.open {
		return 0, ErrClosed
	}
	out.Reset()
	for !out.Full() {
		if s.queuePos < s.queue.Len() {
			n := out.AppendRows(s.queue, s.queuePos, s.queue.Len()-s.queuePos)
			s.queuePos += n
			s.stats.Produced += int64(n)
			continue
		}
		row, ok, err := s.advance()
		if err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		if row != nil {
			out.Append(row)
			s.stats.Produced++
		}
	}
	return out.Len(), nil
}

// advance runs the morphing loop until it produces a direct row (mode-0
// probe, ordered direct return or cache hit — returned non-nil), refills
// the unordered queue (returned nil, true), or exhausts the index
// (false). The caller accounts Produced.
func (s *SmoothScan) advance() (tuple.Row, bool, error) {
	if s.done {
		return nil, false, nil
	}
	for {
		// A sharded (parallel) worker pulls only the index entries
		// pointing into its own heap pages, filtered inside the leaf
		// scan; the serial path keeps the classic entry stream.
		var e btree.Entry
		var ok bool
		var err error
		if s.sharded {
			e, ok, err = s.it.NextInRange(s.pred.Hi, s.cfg.PageLo, s.cfg.PageHi)
		} else {
			e, ok, err = s.it.Next()
			if ok && e.Key >= s.pred.Hi {
				ok = false
			}
		}
		if err != nil {
			return nil, false, fmt.Errorf("smooth scan: %w", err)
		}
		if !ok {
			s.done = true
			return nil, false, nil
		}
		// Morphing trigger check (non-eager strategies).
		if s.mode == ModeIndex && s.stats.Produced >= s.triggerCard {
			s.mode = ModeEntirePage
			s.stats.TriggeredAt = s.stats.Produced
		}
		if s.mode == ModeIndex {
			// Mode 0: classic index-scan probe.
			row, err := s.file.RowAt(s.pool, e.TID)
			if err != nil {
				return nil, false, fmt.Errorf("smooth scan: %w", err)
			}
			s.pool.ChargeCPU(simcost.Tuple)
			s.tupSeen.Set(s.tidBit(e.TID))
			if !tuple.MatchesAll(s.cfg.Residual, row) {
				continue
			}
			return row, true, nil
		}

		if s.cfg.Ordered {
			s.cache.dropBelow(e.Key)
		}
		if s.pageSeen.Get(e.TID.Page) {
			// Leaf pointer to an already-analysed page (✕ in Fig. 3).
			s.stats.LeafPointersSkipped++
			if !s.cfg.Ordered {
				continue // tuple was already emitted from the queue
			}
			if s.tupSeen != nil && s.tupSeen.Get(s.tidBit(e.TID)) {
				continue // produced during Mode 0
			}
			s.pool.ChargeCPU(simcost.Hash)
			row, ok := s.cache.take(e.Key, e.TID)
			if !ok {
				return nil, false, fmt.Errorf("smooth scan: result cache miss for key %d tid %v (invariant violation)", e.Key, e.TID)
			}
			s.stats.CacheHits++
			return row, true, nil
		}

		// Unseen page: analyse a whole morphing region around it.
		direct, err := s.processRegion(e)
		if err != nil {
			return nil, false, err
		}
		if s.cfg.Ordered {
			s.stats.DirectReturns++
			return direct, true, nil
		}
		if s.queuePos < s.queue.Len() {
			return nil, true, nil
		}
		// The probed page must contain the probed tuple, so the queue
		// cannot be empty here unless every region tuple was already
		// produced in Mode 0; loop to the next entry in that case.
	}
}

// processRegion fetches and analyses the morphing region starting at
// the probed entry's page, records qualifying tuples, updates the Page
// ID cache and lets the policy adjust the region size. In ordered mode
// it returns the probed tuple; in unordered mode it fills the queue.
func (s *SmoothScan) processRegion(probe btree.Entry) (tuple.Row, error) {
	start := probe.TID.Page
	end := min64(start+s.regionPages, s.cfg.PageHi)

	var direct tuple.Row
	s.queue.Reset()
	s.queuePos = 0
	regionSeen := int64(0)
	regionWithRes := int64(0)

	// Fetch maximal unseen sub-runs of [start, end).
	for p := start; p < end; {
		if s.pageSeen.Get(p) {
			p++
			continue
		}
		runEnd := p + 1
		for runEnd < end && !s.pageSeen.Get(runEnd) {
			runEnd++
		}
		pages, err := s.file.GetRun(s.pool, p, runEnd-p, s.runBuf)
		if err != nil {
			return nil, fmt.Errorf("smooth scan: %w", err)
		}
		s.runBuf = pages
		for i, page := range pages {
			pageNo := p + int64(i)
			s.pageSeen.Set(pageNo)
			s.stats.PagesFetched++
			regionSeen++
			if s.analysePage(page, pageNo, probe, &direct) {
				s.stats.PagesWithResults++
				regionWithRes++
			}
		}
		p = runEnd
	}

	s.updatePolicy(regionSeen, regionWithRes)

	if s.cfg.Ordered {
		if direct == nil {
			return nil, fmt.Errorf("smooth scan: probed tuple %v not found on page %d (invariant violation)", probe.TID, probe.TID.Page)
		}
		return direct, nil
	}
	return nil, nil
}

// analysePage scans every record of the page (Entire Page Probe),
// dispatching qualifying tuples; reports whether any qualified.
//
// The hot configuration (unordered, eager trigger) decodes matching
// rows straight into the flat region queue, reading only the predicate
// column of non-matching slots and allocating nothing per tuple. Other
// configurations take the general path below. Per-tuple CPU charges
// are accumulated and flushed in runs (ChargeCPUN), preserving the
// exact sequence of cost additions of tuple-at-a-time execution.
func (s *SmoothScan) analysePage(page []byte, pageNo int64, probe btree.Entry, direct *tuple.Row) bool {
	count := heap.PageTupleCount(page)
	if !s.cfg.Ordered && s.tupSeen == nil {
		before := s.queue.Len()
		_, examined := s.file.DecodeBatchMatching(page, 0, count, s.pred, s.cfg.Residual, nil, s.queue)
		s.pool.ChargeCPUN(simcost.Tuple, int64(examined))
		return s.queue.Len() > before
	}
	found := false
	pendingTuples := int64(0) // accumulated simcost.Tuple charges
	for slot := 0; slot < count; slot++ {
		pendingTuples++
		v := s.file.ColInt(page, slot, s.pred.Col)
		if v < s.pred.Lo || v >= s.pred.Hi {
			continue
		}
		if !s.slotMatchesResidual(page, slot) {
			continue
		}
		found = true
		tid := heap.TID{Page: pageNo, Slot: int32(slot)}
		if s.tupSeen != nil && s.tupSeen.Get(s.tidBit(tid)) {
			continue // already produced in Mode 0
		}
		if s.cfg.Ordered {
			row := s.file.DecodeRow(page, slot, s.scratch)
			if tid == probe.TID {
				*direct = row.Clone()
			} else {
				s.pool.ChargeCPUN(simcost.Tuple, pendingTuples)
				pendingTuples = 0
				s.pool.ChargeCPU(simcost.Hash)
				s.cache.insert(row.Int(s.pred.Col), tid, row.Clone())
				s.stats.CacheInserts++
			}
		} else {
			s.file.DecodeRow(page, slot, s.queue.AppendSlotRaw())
		}
	}
	s.pool.ChargeCPUN(simcost.Tuple, pendingTuples)
	return found
}

// slotMatchesResidual evaluates the residual conjunction against a
// slot, reading only the referenced columns.
func (s *SmoothScan) slotMatchesResidual(page []byte, slot int) bool {
	for _, p := range s.cfg.Residual {
		v := s.file.ColInt(page, slot, p.Col)
		if v < p.Lo || v >= p.Hi {
			return false
		}
	}
	return true
}

// updatePolicy adjusts the morphing region after a region was
// processed, comparing the region's page-level result density (Eq. 1)
// against the global density over all previously seen pages (Eq. 2).
// Ties count as "dense": a region exactly as dense as the global
// average is evidence the data keeps qualifying, so the scan keeps
// flattening — this is what lets Smooth Scan converge to sequential
// behaviour at 100% selectivity (Figures 5 and 6).
func (s *SmoothScan) updatePolicy(regionSeen, regionWithRes int64) {
	if regionSeen == 0 {
		return
	}
	defer func() {
		s.globalPagesSeen += regionSeen
		s.globalPagesWithRes += regionWithRes
		if s.regionPages > s.stats.PeakRegionPages {
			s.stats.PeakRegionPages = s.regionPages
		}
	}()
	if s.cfg.MaxMode == ModeEntirePage {
		s.regionPages = 1
		return
	}
	grow := func() {
		if s.regionPages < s.cfg.MaxRegionPages {
			s.regionPages = min64(s.regionPages*2, s.cfg.MaxRegionPages)
			s.stats.Expansions++
			s.mode = ModeFlattening
		}
	}
	shrink := func() {
		if s.regionPages > 1 {
			s.regionPages /= 2
			s.stats.Shrinks++
		}
	}
	// local >= global  ⇔  regionWithRes/regionSeen >= globalWithRes/globalSeen,
	// compared without division. Before any page was seen, any result
	// counts as an increase.
	denser := regionWithRes*max64(s.globalPagesSeen, 1) >= s.globalPagesWithRes*regionSeen
	if s.globalPagesSeen == 0 {
		denser = regionWithRes > 0
	}
	switch s.cfg.Policy {
	case Greedy:
		grow()
	case SelectivityIncrease:
		if denser {
			grow()
		}
	case Elastic:
		if denser {
			grow()
		} else {
			shrink()
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
