package core

import (
	"fmt"
	"testing"

	"smoothscan/internal/tuple"
)

// drainBatched runs the scan through NextBatch with the given batch
// capacity, cloning rows out of the batch. Capacity 1 is the
// tuple-at-a-time reference schedule.
func drainBatched(t testing.TB, s *SmoothScan, batchCap int) []tuple.Row {
	t.Helper()
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := tuple.NewBatchFor(s.Schema(), batchCap)
	var out []tuple.Row
	for {
		n, err := s.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		for i := 0; i < n; i++ {
			out = append(out, b.Row(i).Clone())
		}
	}
}

// TestBatchedSmoothScanEquivalence is the batching acceptance test: for
// every morphing policy, ordered and unordered delivery, and a spread
// of selectivities, execution at any batch capacity must produce
// exactly the rows of one-row batches (tuple-at-a-time execution) in
// the same order, AND leave the simulated device and the operator in a
// bit-identical state — same I/O request counts, same random/sequential
// split, same simulated I/O and CPU time, same morphing statistics.
// Batch capacity changes CPU wall-clock work, not the simulated
// schedule.
func TestBatchedSmoothScanEquivalence(t *testing.T) {
	const numRows = 600
	gen := func(i int64) int64 { return (i * 131) % numRows } // scattered values
	selPreds := map[string]tuple.RangePred{
		"sel1pct":   {Col: 1, Lo: 0, Hi: 6},
		"sel20pct":  {Col: 1, Lo: 100, Hi: 220},
		"sel100pct": {Col: 1, Lo: 0, Hi: numRows},
	}
	for _, policy := range []Policy{Elastic, Greedy, SelectivityIncrease} {
		for _, ordered := range []bool{false, true} {
			for selName, pred := range selPreds {
				for _, batchCap := range []int{1, 7, 256} {
					name := fmt.Sprintf("%v/ordered=%v/%s/batch=%d", policy, ordered, selName, batchCap)
					t.Run(name, func(t *testing.T) {
						cfg := Config{Policy: policy, Ordered: ordered, MaxRegionPages: 8}

						fxA := newFixture(t, numRows, 32, gen)
						ssA, err := NewSmoothScan(fxA.file, fxA.pool, fxA.tree, pred, cfg)
						if err != nil {
							t.Fatal(err)
						}
						want := drainBatched(t, ssA, 1)

						fxB := newFixture(t, numRows, 32, gen)
						ssB, err := NewSmoothScan(fxB.file, fxB.pool, fxB.tree, pred, cfg)
						if err != nil {
							t.Fatal(err)
						}
						got := drainBatched(t, ssB, batchCap)

						if !rowsEqual(want, got) {
							t.Fatalf("rows differ: %d at capacity 1, %d batched", len(want), len(got))
						}
						if sa, sb := fxA.dev.Stats(), fxB.dev.Stats(); sa != sb {
							t.Errorf("device stats differ:\n capacity 1: %+v\n batched:    %+v", sa, sb)
						}
						if sa, sb := ssA.Stats(), ssB.Stats(); sa != sb {
							t.Errorf("operator stats differ:\n capacity 1: %+v\n batched:    %+v", sa, sb)
						}
					})
				}
			}
		}
	}
}

// TestBatchedSmoothScanTriggersAndModes covers the non-eager triggers
// (which exercise the Tuple ID cache inside the batched analysePage)
// and the Entire-Page-Probe-only mode cap.
func TestBatchedSmoothScanTriggersAndModes(t *testing.T) {
	const numRows = 600
	gen := func(i int64) int64 { return (i * 131) % numRows }
	pred := tuple.RangePred{Col: 1, Lo: 50, Hi: 350}
	cfgs := map[string]Config{
		"optimizer-trigger": {Trigger: OptimizerDriven, EstimatedCard: 40},
		"optimizer-ordered": {Trigger: OptimizerDriven, EstimatedCard: 40, Ordered: true},
		"entire-page-only":  {MaxMode: ModeEntirePage},
	}
	for name, cfg := range cfgs {
		cfg := cfg
		cfg.MaxRegionPages = 8
		t.Run(name, func(t *testing.T) {
			fxA := newFixture(t, numRows, 32, gen)
			ssA, err := NewSmoothScan(fxA.file, fxA.pool, fxA.tree, pred, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := drainBatched(t, ssA, 1)

			fxB := newFixture(t, numRows, 32, gen)
			ssB, err := NewSmoothScan(fxB.file, fxB.pool, fxB.tree, pred, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := drainBatched(t, ssB, 64)

			if !rowsEqual(want, got) {
				t.Fatalf("rows differ: %d at capacity 1, %d batched", len(want), len(got))
			}
			if sa, sb := fxA.dev.Stats(), fxB.dev.Stats(); sa != sb {
				t.Errorf("device stats differ:\n capacity 1: %+v\n batched:    %+v", sa, sb)
			}
		})
	}
}

// TestSmoothScanMixedProtocol alternates batch capacities (1 and 32) on
// one open scan: every pull drains the same cursor, and the schedule
// matches a capacity-1 drain bit for bit.
func TestSmoothScanMixedProtocol(t *testing.T) {
	const numRows = 400
	gen := func(i int64) int64 { return (i * 37) % numRows }
	pred := tuple.RangePred{Col: 1, Lo: 0, Hi: numRows}

	fxA := newFixture(t, numRows, 32, gen)
	ssA, err := NewSmoothScan(fxA.file, fxA.pool, fxA.tree, pred, Config{MaxRegionPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := drainBatched(t, ssA, 1)

	fxB := newFixture(t, numRows, 32, gen)
	ssB, err := NewSmoothScan(fxB.file, fxB.pool, fxB.tree, pred, Config{MaxRegionPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := ssB.Open(); err != nil {
		t.Fatal(err)
	}
	defer ssB.Close()
	batches := [2]*tuple.Batch{tuple.NewBatchFor(ssB.Schema(), 1), tuple.NewBatchFor(ssB.Schema(), 32)}
	var got []tuple.Row
	for i := 0; ; i++ {
		b := batches[i%2]
		n, err := ssB.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		for j := 0; j < n; j++ {
			got = append(got, b.Row(j).Clone())
		}
	}
	if !rowsEqual(want, got) {
		t.Fatalf("mixed capacities: %d rows, want %d", len(got), len(want))
	}
	if sa, sb := fxA.dev.Stats(), fxB.dev.Stats(); sa != sb {
		t.Errorf("device stats differ:\n capacity 1: %+v\n mixed:      %+v", sa, sb)
	}
}
