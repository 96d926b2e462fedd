package tpch

import (
	"math"
	"testing"

	"smoothscan/internal/bufferpool"
	"smoothscan/internal/core"
	"smoothscan/internal/disk"
	"smoothscan/internal/exec"
	"smoothscan/internal/heap"
	"smoothscan/internal/tuple"
)

func genDB(t testing.TB, orders int64) *DB {
	t.Helper()
	dev := disk.NewDevice(disk.HDD)
	db, err := Gen(dev, Config{NumOrders: orders, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// newPool sizes the buffer pool at ~10% of LINEITEM, as the paper's
// experiments keep the buffer cache far smaller than the data.
func newPool(db *DB) *bufferpool.Pool {
	return bufferpool.New(db.Dev, int(db.Lineitem.File.NumPages()/10)+32)
}

func TestGenValidation(t *testing.T) {
	dev := disk.NewDevice(disk.HDD)
	if _, err := Gen(dev, Config{NumOrders: 0}); err == nil {
		t.Error("zero orders accepted")
	}
}

func TestGenShape(t *testing.T) {
	db := genDB(t, 2000)
	li := db.Lineitem.File
	// Avg 4 lines per order.
	if li.NumTuples() < 4000 || li.NumTuples() > 12000 {
		t.Errorf("lineitem rows = %d for 2000 orders", li.NumTuples())
	}
	if db.Orders.File.NumTuples() != 2000 {
		t.Errorf("orders rows = %d", db.Orders.File.NumTuples())
	}
	if db.Nation.File.NumTuples() != 25 || db.Region.File.NumTuples() != 5 {
		t.Errorf("nation/region sizes wrong")
	}
	if db.ShipIdx.NumKeys() != li.NumTuples() {
		t.Errorf("ship index keys = %d, want %d", db.ShipIdx.NumKeys(), li.NumTuples())
	}
	if db.Dev.Stats().PagesRead != 0 {
		t.Error("device stats not reset after generation")
	}
}

func TestGenDeterministic(t *testing.T) {
	a := genDB(t, 500)
	b := genDB(t, 500)
	if a.Lineitem.File.NumTuples() != b.Lineitem.File.NumTuples() {
		t.Fatal("same-seed generation differs in size")
	}
	pa, pb := newPool(a), newPool(b)
	for _, i := range []int64{0, 100, a.Lineitem.File.NumTuples() - 1} {
		ra, err := a.Lineitem.File.RowAt(pa, a.Lineitem.File.TIDOf(i))
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Lineitem.File.RowAt(pb, b.Lineitem.File.TIDOf(i))
		if err != nil {
			t.Fatal(err)
		}
		if !ra.Equal(rb) {
			t.Fatalf("lineitem row %d differs across same-seed runs", i)
		}
	}
}

func TestShipdatePredHitsTargetSelectivity(t *testing.T) {
	db := genDB(t, 3000)
	for _, sel := range []float64{0.01, 0.02, 0.30, 0.65, 0.98} {
		pred := db.ShipdatePred(sel)
		got := db.TrueSelectivity(pred)
		if math.Abs(got-sel) > 0.03 {
			t.Errorf("sel %v: pred %v has true selectivity %v", sel, pred, got)
		}
	}
	if p := db.ShipdatePred(0); p.Lo != p.Hi {
		t.Errorf("sel 0: %v", p)
	}
	if got := db.TrueSelectivity(db.ShipdatePred(1)); got != 1 {
		t.Errorf("sel 1: true = %v", got)
	}
}

func TestReferentialIntegrity(t *testing.T) {
	db := genDB(t, 500)
	pool := newPool(db)
	row := tuple.NewRow(db.Lineitem.File.Schema())
	for p := int64(0); p < db.Lineitem.File.NumPages(); p++ {
		page, err := db.Lineitem.File.GetPage(pool, p)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < heap.PageTupleCount(page); s++ {
			row = db.Lineitem.File.DecodeRow(page, s, row)
			if k := row.Int(LOrderkey); k < 0 || k >= db.Orders.File.NumTuples() {
				t.Fatalf("dangling l_orderkey %d", k)
			}
			if k := row.Int(LPartkey); k < 0 || k >= db.Part.File.NumTuples() {
				t.Fatalf("dangling l_partkey %d", k)
			}
			if k := row.Int(LSuppkey); k < 0 || k >= db.Supplier.File.NumTuples() {
				t.Fatalf("dangling l_suppkey %d", k)
			}
			ship, commit, receipt := row.Int(LShipdate), row.Int(LCommitdate), row.Int(LReceiptdate)
			if receipt <= ship {
				t.Fatalf("receipt %d <= ship %d", receipt, ship)
			}
			if commit < MinDate || ship < MinDate {
				t.Fatal("dates below domain")
			}
		}
	}
}

// Every query must return identical results under every LINEITEM
// access path — the access path is an implementation detail.
func TestQueriesPathIndependent(t *testing.T) {
	db := genDB(t, 1500)
	specs := []ScanSpec{
		{Path: PathFull},
		{Path: PathIndex},
		{Path: PathSort},
		{Path: PathSmooth, Smooth: DefaultSmooth()},
		{Path: PathSmooth, Smooth: core.Config{Policy: core.Greedy, Trigger: core.Eager}},
		{Path: PathSwitch, SwitchThreshold: 100},
	}
	for _, q := range db.Queries() {
		var want QueryResult
		for i, spec := range specs {
			pool := newPool(db)
			got, err := q.Run(pool, spec)
			if err != nil {
				t.Fatalf("%s under %v: %v", q.Name, spec.Path, err)
			}
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s under %v: result %+v, want %+v", q.Name, spec.Path, got, want)
			}
		}
	}
}

func TestScanLineitemRejectsWrongColumn(t *testing.T) {
	db := genDB(t, 200)
	pool := newPool(db)
	if _, err := db.ScanLineitem(pool, tuple.RangePred{Col: LQuantity, Lo: 0, Hi: 10}, ScanSpec{Path: PathFull}); err == nil {
		t.Error("predicate on non-indexed column accepted")
	}
	if _, err := db.ScanLineitem(pool, db.ShipdatePred(0.5), ScanSpec{Path: Path(99)}); err == nil {
		t.Error("unknown path accepted")
	}
}

// The Figure 4 headline: for the misestimated queries (Q6, Q7, Q14)
// Smooth Scan must beat the plain-PostgreSQL index-scan plan by a wide
// margin; for the well-estimated ones (Q1, Q4) it must be close to the
// optimal plan.
func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	db := genDB(t, 8000)
	measure := func(q QuerySpec, spec ScanSpec) float64 {
		pool := newPool(db)
		db.Dev.ResetStats()
		if _, err := q.Run(pool, spec); err != nil {
			t.Fatal(err)
		}
		return db.Dev.Stats().Time()
	}
	plans := PaperPlans()
	for _, q := range db.Queries() {
		pSQL := measure(q, ScanSpec{Path: plans[q.Name]})
		smooth := measure(q, ScanSpec{Path: PathSmooth, Smooth: DefaultSmooth()})
		ratio := pSQL / smooth
		switch q.Name {
		case "Q6", "Q7", "Q14":
			if ratio < 1.5 {
				t.Errorf("%s: smooth scan should win big over index plan: pSQL=%v smooth=%v", q.Name, pSQL, smooth)
			}
		case "Q1", "Q4":
			if ratio > 1.0/0.6 {
				t.Errorf("%s: smooth scan overhead too high: pSQL=%v smooth=%v", q.Name, pSQL, smooth)
			}
			if smooth > pSQL*1.7 {
				t.Errorf("%s: smooth scan %v vs optimal %v", q.Name, smooth, pSQL)
			}
		}
	}
}

func TestTableIIIOAccounting(t *testing.T) {
	// The Table II effect on Q6: Smooth Scan issues far fewer I/O
	// requests than the index scan, even if it reads more data.
	db := genDB(t, 4000)
	measure := func(spec ScanSpec) disk.Stats {
		pool := newPool(db)
		db.Dev.ResetStats()
		if _, err := db.Q6(pool, spec); err != nil {
			t.Fatal(err)
		}
		return db.Dev.Stats()
	}
	is := measure(ScanSpec{Path: PathIndex})
	ss := measure(ScanSpec{Path: PathSmooth, Smooth: DefaultSmooth()})
	if ss.Requests >= is.Requests {
		t.Errorf("smooth scan requests %d >= index scan %d", ss.Requests, is.Requests)
	}
}

func TestQ1AggregatesAreStable(t *testing.T) {
	db := genDB(t, 800)
	pool := newPool(db)
	r1, err := db.Q1(pool, ScanSpec{Path: PathFull})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rows < 1 || r1.Rows > 6 {
		t.Errorf("Q1 groups = %d, want 1..6", r1.Rows)
	}
}

func TestSmoothLookupWorksAsInner(t *testing.T) {
	// Q14 with the per-key morphing inner (Section IV-B extension):
	// same result as the plain look-up inner.
	db := genDB(t, 800)
	pool := newPool(db)
	pred := db.MonthPred(72)
	scan, err := db.ScanLineitem(pool, pred, ScanSpec{Path: PathSmooth, Smooth: DefaultSmooth()})
	if err != nil {
		t.Fatal(err)
	}
	joinPlain := exec.NewIndexNestedLoopJoin(scan, exec.NewIndexLookup(db.Part.File, pool, db.Part.PK), LPartkey)
	nPlain, err := exec.Count(joinPlain)
	if err != nil {
		t.Fatal(err)
	}
	scan2, err := db.ScanLineitem(pool, pred, ScanSpec{Path: PathSmooth, Smooth: DefaultSmooth()})
	if err != nil {
		t.Fatal(err)
	}
	joinSmooth := exec.NewIndexNestedLoopJoin(scan2, exec.NewSmoothLookup(db.Part.File, pool, db.Part.PK), LPartkey)
	nSmooth, err := exec.Count(joinSmooth)
	if err != nil {
		t.Fatal(err)
	}
	if nPlain != nSmooth {
		t.Errorf("inner variants disagree: %d vs %d", nPlain, nSmooth)
	}
}

// TestPreparedLineitemTemplate: one validated scan template bound over
// a month sweep produces the same rows and simulated cost as fresh
// per-query ScanLineitem builds — the compile-once/bind-many lifecycle
// at the plan layer.
func TestPreparedLineitemTemplate(t *testing.T) {
	db := genDB(t, 2000)
	pool := newPool(db)
	spec := ScanSpec{Path: PathSmooth, Smooth: DefaultSmooth()}
	tm, err := db.PrepareLineitem(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, month := range []int64{0, 24, 60} {
		pred := db.MonthPred(month)

		pool.Reset()
		db.Dev.ResetStats()
		direct, err := db.ScanLineitem(pool, pred, spec)
		if err != nil {
			t.Fatal(err)
		}
		nDirect, err := exec.Count(direct)
		if err != nil {
			t.Fatal(err)
		}
		costDirect := db.Dev.Stats().Time()

		pool.Reset()
		db.Dev.ResetStats()
		bound, err := tm.BindOn(pool, pred)
		if err != nil {
			t.Fatal(err)
		}
		nBound, err := exec.Count(bound.Op)
		if err != nil {
			t.Fatal(err)
		}
		if nBound != nDirect {
			t.Errorf("month %d: template bind produced %d rows, fresh build %d", month, nBound, nDirect)
		}
		if got := db.Dev.Stats().Time(); got != costDirect {
			t.Errorf("month %d: template bind cost %.3f, fresh build %.3f", month, got, costDirect)
		}
	}
	// Structural validation happens at prepare: an unknown path fails
	// before any predicate exists.
	if _, err := db.PrepareLineitem(ScanSpec{Path: Path(42)}); err == nil {
		t.Error("unknown path accepted by PrepareLineitem")
	}
}
