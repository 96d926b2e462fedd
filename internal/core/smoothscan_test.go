package core

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"smoothscan/internal/btree"
	"smoothscan/internal/bufferpool"
	"smoothscan/internal/costmodel"
	"smoothscan/internal/disk"
	"smoothscan/internal/heap"
	"smoothscan/internal/tuple"
)

// fixture is a loaded 3-column table (c1 = row number, c2 = gen(i),
// c3 = i%3) with a secondary index on c2, on 256-byte pages (10
// tuples/page).
type fixture struct {
	dev  *disk.Device
	pool *bufferpool.Pool
	file *heap.File
	tree *btree.Tree
	rows []tuple.Row
}

func newFixture(t testing.TB, numRows int64, poolPages int, gen func(i int64) int64) *fixture {
	t.Helper()
	dev := disk.NewDevice(disk.Profile{Name: "t", RandCost: 10, SeqCost: 1, PageSize: 256})
	file, err := heap.Create(dev, tuple.Ints(3))
	if err != nil {
		t.Fatal(err)
	}
	b := file.NewBuilder()
	var rows []tuple.Row
	for i := int64(0); i < numRows; i++ {
		r := tuple.IntsRow(i, gen(i), i%3)
		rows = append(rows, r)
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	tree, err := btree.BuildOnColumn(dev, file, 1)
	if err != nil {
		t.Fatal(err)
	}
	dev.ResetStats()
	return &fixture{dev: dev, pool: bufferpool.New(dev, poolPages), file: file, tree: tree, rows: rows}
}

// newBigFixture loads a table with the paper's real geometry: 8 KB
// pages, 10 integer columns (80-byte tuples, 102 per page), HDD costs.
func newBigFixture(t testing.TB, numRows int64, gen func(i int64) int64) *fixture {
	t.Helper()
	dev := disk.NewDevice(disk.HDD)
	file, err := heap.Create(dev, tuple.Ints(10))
	if err != nil {
		t.Fatal(err)
	}
	b := file.NewBuilder()
	var rows []tuple.Row
	for i := int64(0); i < numRows; i++ {
		r := tuple.IntsRow(i, gen(i), 0, 0, 0, 0, 0, 0, 0, 0)
		rows = append(rows, r)
		if err := b.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	tree, err := btree.BuildOnColumn(dev, file, 1)
	if err != nil {
		t.Fatal(err)
	}
	dev.ResetStats()
	pool := bufferpool.New(dev, int(file.NumPages()/10)+100)
	return &fixture{dev: dev, pool: pool, file: file, tree: tree, rows: rows}
}

// scan runs a fresh Smooth Scan to completion through one-row batches
// (the tuple-at-a-time schedule) and returns it with its rows.
func (fx *fixture) scan(t testing.TB, pred tuple.RangePred, cfg Config) (*SmoothScan, []tuple.Row) {
	t.Helper()
	s, err := NewSmoothScan(fx.file, fx.pool, fx.tree, pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, drainBatched(t, s, 1)
}

func expected(rows []tuple.Row, pred tuple.RangePred) []tuple.Row {
	var out []tuple.Row
	for _, r := range rows {
		if pred.Matches(r) {
			out = append(out, r)
		}
	}
	return out
}

func sortByKeyThenTID(rows []tuple.Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Int(1) != rows[j].Int(1) {
			return rows[i].Int(1) < rows[j].Int(1)
		}
		return rows[i].Int(0) < rows[j].Int(0)
	})
}

func rowsEqual(a, b []tuple.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func TestConfigValidation(t *testing.T) {
	fx := newFixture(t, 50, 16, func(i int64) int64 { return i })
	pred := tuple.All(1)
	bad := []Config{
		{Policy: Policy(9)},
		{Trigger: Trigger(9)},
		{MaxRegionPages: -1},
		{Trigger: OptimizerDriven, EstimatedCard: -1},
		{Trigger: SLADriven}, // missing bound and params
	}
	for i, cfg := range bad {
		if _, err := NewSmoothScan(fx.file, fx.pool, fx.tree, pred, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewSmoothScan(fx.file, fx.pool, fx.tree, pred, Config{}); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestNextBeforeOpen(t *testing.T) {
	fx := newFixture(t, 50, 16, func(i int64) int64 { return i })
	s, err := NewSmoothScan(fx.file, fx.pool, fx.tree, tuple.All(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.NextBatch(tuple.NewBatchFor(s.Schema(), 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestOrderedOutputIsKeyOrdered(t *testing.T) {
	fx := newFixture(t, 800, 64, func(i int64) int64 { return (i * 37) % 200 })
	pred := tuple.RangePred{Col: 1, Lo: 20, Hi: 180}
	_, got := fx.scan(t, pred, Config{Policy: Elastic, Ordered: true})
	want := expected(fx.rows, pred)
	sortByKeyThenTID(want)
	if !rowsEqual(got, want) {
		t.Fatalf("ordered smooth scan: %d rows, want %d (or order mismatch)", len(got), len(want))
	}
}

func TestUnorderedOutputIsCorrectMultiset(t *testing.T) {
	fx := newFixture(t, 800, 64, func(i int64) int64 { return (i * 37) % 200 })
	pred := tuple.RangePred{Col: 1, Lo: 20, Hi: 180}
	_, got := fx.scan(t, pred, Config{Policy: Elastic})
	want := expected(fx.rows, pred)
	sortByKeyThenTID(got)
	sortByKeyThenTID(want)
	if !rowsEqual(got, want) {
		t.Fatalf("unordered smooth scan multiset mismatch: %d vs %d", len(got), len(want))
	}
}

func TestEveryPageFetchedAtMostOnce(t *testing.T) {
	// Full selectivity: the defining guarantee of the Eager strategy
	// is that page accesses never exceed the number of heap pages.
	fx := newFixture(t, 2000, 512, func(i int64) int64 { return (i * 7919) % 2000 })
	s, got := fx.scan(t, tuple.All(1), Config{Policy: Elastic})
	if int64(len(got)) != fx.file.NumTuples() {
		t.Fatalf("produced %d of %d tuples", len(got), fx.file.NumTuples())
	}
	if s.Stats().PagesFetched != fx.file.NumPages() {
		t.Errorf("PagesFetched = %d, want %d", s.Stats().PagesFetched, fx.file.NumPages())
	}
	// Device-level heap reads must equal the page count (pool is big
	// enough that nothing is re-read after eviction).
	// Index pages add a little on top.
	ds := fx.dev.Stats()
	if ds.PagesRead > fx.file.NumPages()+fx.tree.NumLeaves()+10 {
		t.Errorf("device read %d pages for %d heap + %d leaves", ds.PagesRead, fx.file.NumPages(), fx.tree.NumLeaves())
	}
}

func TestConvergesToSequentialAtFullSelectivity(t *testing.T) {
	fx := newBigFixture(t, 50_000, func(i int64) int64 { return (i * 7919) % 50_000 })
	fx.scan(t, tuple.All(1), Config{Policy: Elastic})
	s := fx.dev.Stats()
	// The morphing region doubles towards the max; random jumps must
	// be a tiny fraction of total page accesses.
	if s.RandomAccesses*20 > s.PagesRead {
		t.Errorf("too many random accesses: %d of %d pages", s.RandomAccesses, s.PagesRead)
	}
	// Intrinsic overhead over a full scan: the index-leaf walk (~25%
	// at this tuple/entry geometry, shrinking with table size) plus a
	// handful of expansion seeks. The paper reports ~20% at 400M
	// rows; at 50K rows we allow 80%.
	fsIO := float64(fx.file.NumPages()) // full scan cost
	if got := s.IOTime; got > fsIO*1.8 {
		t.Errorf("smooth scan I/O %v vs full scan %v: not near-sequential", got, fsIO)
	}
}

func TestLowSelectivityStaysNearIndexScan(t *testing.T) {
	fx := newFixture(t, 4000, 256, func(i int64) int64 { return (i * 7919) % 4000 })
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 4} // 4 tuples of 4000
	s, got := fx.scan(t, pred, Config{Policy: Elastic, Ordered: true})
	if len(got) != 4 {
		t.Fatalf("produced %d rows, want 4", len(got))
	}
	st := s.Stats()
	// Elastic oscillates between 1 and 2 pages per probe: the scan
	// must fetch O(card) pages, not O(table).
	if st.PagesFetched > 16 {
		t.Errorf("PagesFetched = %d for 4 results", st.PagesFetched)
	}
}

func TestEntirePageProbeCapKeepsRegionAtOne(t *testing.T) {
	fx := newFixture(t, 1000, 256, func(i int64) int64 { return (i * 7919) % 1000 })
	s, _ := fx.scan(t, tuple.All(1), Config{Policy: Elastic, MaxMode: ModeEntirePage})
	st := s.Stats()
	if st.Expansions != 0 || st.PeakRegionPages > 1 {
		t.Errorf("mode cap violated: expansions=%d peak=%d", st.Expansions, st.PeakRegionPages)
	}
	if s.CurrentMode() != ModeEntirePage {
		t.Errorf("mode = %v, want entire-page-probe", s.CurrentMode())
	}
	// Every page is fetched exactly once but randomly: I/O ≈ P × rand.
	ds := fx.dev.Stats()
	if ds.RandomAccesses < fx.file.NumPages()/2 {
		t.Errorf("entire-page probe should be mostly random: %d random of %d pages", ds.RandomAccesses, fx.file.NumPages())
	}
}

func TestMaxRegionPagesCap(t *testing.T) {
	fx := newFixture(t, 2000, 512, func(i int64) int64 { return (i * 7919) % 2000 })
	s, _ := fx.scan(t, tuple.All(1), Config{Policy: Greedy, MaxRegionPages: 8})
	if st := s.Stats(); st.PeakRegionPages > 8 {
		t.Errorf("PeakRegionPages = %d, cap was 8", st.PeakRegionPages)
	}
}

func TestGreedyConvergesFasterThanElastic(t *testing.T) {
	gen := func(i int64) int64 { return (i * 7919) % 8000 }
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 40} // low selectivity

	fxG := newFixture(t, 8000, 512, gen)
	sg, _ := fxG.scan(t, pred, Config{Policy: Greedy})
	fxE := newFixture(t, 8000, 512, gen)
	se, _ := fxE.scan(t, pred, Config{Policy: Elastic})

	if sg.Stats().PagesFetched <= se.Stats().PagesFetched {
		t.Errorf("greedy fetched %d pages, elastic %d: greedy should over-read at low selectivity",
			sg.Stats().PagesFetched, se.Stats().PagesFetched)
	}
}

func TestElasticAdaptsToSkew(t *testing.T) {
	// Dense head (rows 0..999 all match) plus sparse tail — the
	// Figure 8 scenario. Elastic must fetch far fewer pages than
	// Selectivity-Increase, which never shrinks its region.
	const n = 8000
	gen := func(i int64) int64 {
		if i < 1000 {
			return 0
		}
		if i%500 == 0 {
			return 0 // sparse extra matches
		}
		return 1 + i%100
	}
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 1}

	fxE := newFixture(t, n, 512, gen)
	se, gotE := fxE.scan(t, pred, Config{Policy: Elastic})
	fxS := newFixture(t, n, 512, gen)
	ss, gotS := fxS.scan(t, pred, Config{Policy: SelectivityIncrease})

	if len(gotE) != len(gotS) {
		t.Fatalf("policies disagree on result size: %d vs %d", len(gotE), len(gotS))
	}
	e, si := se.Stats(), ss.Stats()
	if e.Shrinks == 0 {
		t.Error("elastic never shrank through the sparse tail")
	}
	if si.Shrinks != 0 {
		t.Error("selectivity-increase shrank (must be a ratchet)")
	}
	if e.PagesFetched*2 > si.PagesFetched {
		t.Errorf("elastic fetched %d pages vs SI %d: expected a large gap", e.PagesFetched, si.PagesFetched)
	}
}

func TestOptimizerDrivenTrigger(t *testing.T) {
	fx := newFixture(t, 2000, 512, func(i int64) int64 { return (i * 7919) % 2000 })
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 500} // 500 actual
	const estimate = 100
	s, got := fx.scan(t, pred, Config{
		Policy:        SelectivityIncrease,
		Trigger:       OptimizerDriven,
		EstimatedCard: estimate,
		Ordered:       true,
	})
	if len(got) != 500 {
		t.Fatalf("produced %d rows, want 500", len(got))
	}
	if st := s.Stats(); st.TriggeredAt != estimate {
		t.Errorf("TriggeredAt = %d, want %d", st.TriggeredAt, estimate)
	}
	// Order must hold across the morph boundary.
	for i := 1; i < len(got); i++ {
		if got[i].Int(1) < got[i-1].Int(1) {
			t.Fatalf("order violated at %d across morph", i)
		}
	}
}

func TestOptimizerDrivenNoTriggerBelowEstimate(t *testing.T) {
	fx := newFixture(t, 2000, 512, func(i int64) int64 { return (i * 7919) % 2000 })
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: 50} // 50 actual
	s, got := fx.scan(t, pred, Config{
		Trigger:       OptimizerDriven,
		EstimatedCard: 100,
	})
	if len(got) != 50 {
		t.Fatalf("produced %d rows, want 50", len(got))
	}
	st := s.Stats()
	if st.TriggeredAt != -1 {
		t.Errorf("TriggeredAt = %d, want -1 (never morphs)", st.TriggeredAt)
	}
	if st.PagesFetched != 0 {
		t.Errorf("PagesFetched = %d in pure mode 0", st.PagesFetched)
	}
	if s.CurrentMode() != ModeIndex {
		t.Errorf("mode = %v, want index(0)", s.CurrentMode())
	}
}

func TestSLADrivenTriggerUsesCostModel(t *testing.T) {
	fx := newBigFixture(t, 50_000, func(i int64) int64 { return (i * 7919) % 50_000 })
	params := costmodel.Params{
		TupleSize: 80, PageSize: 8192, KeySize: 8,
		NumTuples: fx.file.NumTuples(),
		RandCost:  10, SeqCost: 1,
	}
	sla := 2 * params.FullScanCost() // the paper's Figure 7b setting
	wantTrigger := params.SLATriggerCard(sla)
	if wantTrigger <= 0 || wantTrigger >= fx.file.NumTuples() {
		t.Fatalf("degenerate trigger %d", wantTrigger)
	}
	pred := tuple.All(1)
	s, got := fx.scan(t, pred, Config{
		Policy:     Greedy, // the paper switches to Greedy on SLA violation
		Trigger:    SLADriven,
		SLABound:   sla,
		CostParams: params,
	})
	if int64(len(got)) != fx.file.NumTuples() {
		t.Fatalf("produced %d rows", len(got))
	}
	if st := s.Stats(); st.TriggeredAt != wantTrigger {
		t.Errorf("TriggeredAt = %d, want %d", st.TriggeredAt, wantTrigger)
	}
	// The worst case (100% selectivity) must respect the SLA bound,
	// with a little slack for effects outside the model (buffer-pool
	// evictions, region fragmentation).
	if io := fx.dev.Stats().IOTime; io > sla*1.1 {
		t.Errorf("I/O time %v exceeded SLA %v", io, sla)
	}
}

func TestResultCacheHitRateHighSelectivity(t *testing.T) {
	fx := newFixture(t, 2000, 512, func(i int64) int64 { return (i * 7919) % 2000 })
	s, _ := fx.scan(t, tuple.All(1), Config{Policy: Elastic, Ordered: true})
	st := s.Stats()
	if hr := st.CacheHitRate(); hr < 0.8 {
		t.Errorf("cache hit rate %v at full selectivity, want near 1", hr)
	}
	if st.CachePeakBytes == 0 || st.CachePeakTuples == 0 {
		t.Error("cache peaks not recorded")
	}
}

func TestResultCacheDrainsCompletely(t *testing.T) {
	fx := newFixture(t, 1000, 256, func(i int64) int64 { return (i * 37) % 250 })
	s, got := fx.scan(t, tuple.RangePred{Col: 1, Lo: 0, Hi: 250}, Config{Policy: Elastic, Ordered: true})
	if int64(len(got)) != fx.file.NumTuples() {
		t.Fatalf("produced %d rows", len(got))
	}
	if s.cache.size() != 0 {
		t.Errorf("result cache holds %d tuples after completion", s.cache.size())
	}
}

func TestMorphingAccuracyImprovesWithSelectivity(t *testing.T) {
	gen := func(i int64) int64 { return (i * 7919) % 10000 }
	acc := func(hi int64) float64 {
		fx := newFixture(t, 10000, 1024, gen)
		s, _ := fx.scan(t, tuple.RangePred{Col: 1, Lo: 0, Hi: hi}, Config{Policy: Elastic})
		return s.Stats().MorphingAccuracy()
	}
	low := acc(10)     // 0.1% selectivity
	high := acc(10000) // 100%
	if high < 0.999 {
		t.Errorf("morphing accuracy at 100%% = %v, want ~1", high)
	}
	if low >= high {
		t.Errorf("accuracy did not improve: low=%v high=%v", low, high)
	}
}

func TestBookkeepingMemorySmall(t *testing.T) {
	fx := newFixture(t, 10000, 512, func(i int64) int64 { return i })
	s, _ := fx.scan(t, tuple.RangePred{Col: 1, Lo: 0, Hi: 100}, Config{Policy: Elastic, Ordered: true})
	st := s.Stats()
	heapBytes := fx.file.NumPages() * 256
	if st.PageCacheBytes*100 > heapBytes {
		t.Errorf("page cache %d bytes for %d bytes of data: not <1%%", st.PageCacheBytes, heapBytes)
	}
}

func TestErrorPropagation(t *testing.T) {
	fx := newFixture(t, 1000, 256, func(i int64) int64 { return (i * 37) % 250 })
	s, err := NewSmoothScan(fx.file, fx.pool, fx.tree, tuple.All(1), Config{Policy: Elastic})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	fx.dev.FailAfter(5)
	b := tuple.NewBatchFor(s.Schema(), 1)
	var last error
	for {
		n, err := s.NextBatch(b)
		if err != nil {
			last = err
			break
		}
		if n == 0 {
			break
		}
	}
	if !errors.Is(last, disk.ErrInjected) {
		t.Errorf("err = %v, want ErrInjected", last)
	}
	fx.dev.FailAfter(-1)
}

// Property: Smooth Scan under every policy × trigger × order setting
// returns exactly the qualifying tuples, each once, ordered when
// requested — equivalent to a filtered full scan.
func TestSmoothScanEquivalenceProperty(t *testing.T) {
	f := func(seed int64, loRaw, width uint8, estRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		fx := newFixture(t, 600, 48, func(i int64) int64 { return rng.Int63n(150) })
		lo := int64(loRaw) % 160
		hi := lo + int64(width)
		pred := tuple.RangePred{Col: 1, Lo: lo, Hi: hi}
		want := expected(fx.rows, pred)
		sortByKeyThenTID(want)

		params := costmodel.Params{
			TupleSize: 24, PageSize: 256, KeySize: 8,
			NumTuples: fx.file.NumTuples(), RandCost: 10, SeqCost: 1,
		}
		for _, policy := range []Policy{Greedy, SelectivityIncrease, Elastic} {
			for _, ordered := range []bool{false, true} {
				for _, trigger := range []Trigger{Eager, OptimizerDriven, SLADriven} {
					cfg := Config{Policy: policy, Trigger: trigger, Ordered: ordered}
					switch trigger {
					case OptimizerDriven:
						cfg.EstimatedCard = int64(estRaw)
					case SLADriven:
						cfg.CostParams = params
						cfg.SLABound = 1.5 * params.FullScanCost()
					}
					_, got := fx.scan(t, pred, cfg)
					if ordered {
						if !rowsEqual(got, want) {
							return false
						}
					} else {
						sortByKeyThenTID(got)
						if !rowsEqual(got, want) {
							return false
						}
					}
					fx.pool.Reset()
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
