package access

import (
	"fmt"
	"testing"

	"smoothscan/internal/tuple"
)

// TestBatchedAccessPathEquivalence checks, for every traditional access
// path, that execution at any batch capacity returns exactly the rows
// of one-row batches (the tuple-at-a-time reference) in the same order
// and leaves bit-identical device statistics (I/O requests,
// random/sequential split, simulated I/O and CPU time).
func TestBatchedAccessPathEquivalence(t *testing.T) {
	const numRows = 500
	gen := func(i int64) int64 { return (i * 89) % numRows }
	preds := map[string]tuple.RangePred{
		"narrow": {Col: 1, Lo: 10, Hi: 35},
		"wide":   {Col: 1, Lo: 0, Hi: 400},
		"all":    {Col: 1, Lo: 0, Hi: numRows},
	}
	paths := map[string]func(fx *fixture, pred tuple.RangePred) operator{
		"full": func(fx *fixture, pred tuple.RangePred) operator { return NewFullScan(fx.file, fx.pool, pred) },
		"index": func(fx *fixture, pred tuple.RangePred) operator {
			return NewIndexScan(fx.file, fx.pool, fx.tree, pred)
		},
		"sort": func(fx *fixture, pred tuple.RangePred) operator {
			return NewSortScan(fx.file, fx.pool, fx.tree, pred, true)
		},
		"switch": func(fx *fixture, pred tuple.RangePred) operator {
			return NewSwitchScan(fx.file, fx.pool, fx.tree, pred, 20)
		},
	}
	for pathName, mk := range paths {
		for predName, pred := range preds {
			for _, batchCap := range []int{1, 9, 128} {
				name := fmt.Sprintf("%s/%s/batch=%d", pathName, predName, batchCap)
				t.Run(name, func(t *testing.T) {
					fxA := newFixture(t, numRows, 24, gen)
					want := drain(t, mk(fxA, pred))

					fxB := newFixture(t, numRows, 24, gen)
					got := drainBatch(t, mk(fxB, pred), batchCap)

					if !rowsEqual(want, got) {
						t.Fatalf("rows differ: %d at capacity 1, %d at capacity %d", len(want), len(got), batchCap)
					}
					if sa, sb := fxA.dev.Stats(), fxB.dev.Stats(); sa != sb {
						t.Errorf("device stats differ:\n capacity 1: %+v\n capacity %d: %+v", sa, batchCap, sb)
					}
				})
			}
		}
	}
}
