package exec

import (
	"fmt"

	"smoothscan/internal/tuple"
)

// Lookup is a parameterised inner input for index-nested-loop joins:
// given a join key, it returns the matching rows. Implementations
// decide the access strategy (plain index look-up, or the per-key
// morphing Smooth Scan variant of Section IV-B).
type Lookup interface {
	// Schema describes the rows Find returns.
	Schema() *tuple.Schema
	// Find returns all rows whose join column equals key.
	Find(key int64) ([]tuple.Row, error)
}

// IndexNestedLoopJoin probes a Lookup for each outer row — the INLJ of
// the paper's TPC-H plans, where the inner is a primary-key look-up or
// a per-key Smooth Scan.
//
// The outer input is pulled through a one-row batch and the inner is
// probed once per outer row, whatever the capacity of the output
// batch: each look-up interleaves with the outer scan as in Volcano
// execution. Pulling the outer a full batch at a time would reorder
// the outer scan's and the look-ups' traffic through the shared buffer
// pool and change the simulated cost of the paper's INLJ plans.
type IndexNestedLoopJoin struct {
	outer    Operator
	inner    Lookup
	outerCol int
	schema   *tuple.Schema

	ob      *tuple.Batch // one-row outer batch; row 0 is the current outer row
	matches []tuple.Row  // inner rows matching the current outer row
	mi      int
	open    bool
}

// NewIndexNestedLoopJoin joins outer.outerCol = inner key.
func NewIndexNestedLoopJoin(outer Operator, inner Lookup, outerCol int) *IndexNestedLoopJoin {
	return &IndexNestedLoopJoin{
		outer: outer, inner: inner, outerCol: outerCol,
		schema: outer.Schema().Concat(inner.Schema()),
	}
}

// Schema returns the concatenated schema.
func (j *IndexNestedLoopJoin) Schema() *tuple.Schema { return j.schema }

// Open opens the outer input.
func (j *IndexNestedLoopJoin) Open() error {
	if err := j.outer.Open(); err != nil {
		return err
	}
	if j.ob == nil {
		j.ob = tuple.NewBatchFor(j.outer.Schema(), 1)
	}
	j.matches, j.mi = nil, 0
	j.open = true
	return nil
}

// NextBatch fills out with joined rows until it is full or the outer
// input ends; a return of 0 is end of stream. The next outer row is
// pulled only once out has room, as a tuple-at-a-time consumer would.
func (j *IndexNestedLoopJoin) NextBatch(out *tuple.Batch) (int, error) {
	if !j.open {
		return 0, ErrClosed
	}
	out.Reset()
	for {
		for ; j.mi < len(j.matches); j.mi++ {
			slot := out.AppendSlotRaw()
			if slot == nil {
				return out.Len(), nil
			}
			outerRow := j.ob.Row(0)
			copy(slot, outerRow)
			copy(slot[len(outerRow):], j.matches[j.mi])
		}
		if out.Full() {
			return out.Len(), nil
		}
		n, err := j.outer.NextBatch(j.ob)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return out.Len(), nil
		}
		matches, err := j.inner.Find(j.ob.Row(0).Int(j.outerCol))
		if err != nil {
			return 0, fmt.Errorf("inlj: %w", err)
		}
		j.matches, j.mi = matches, 0
	}
}

// Close closes the outer input.
func (j *IndexNestedLoopJoin) Close() error {
	j.open = false
	j.matches = nil
	return j.outer.Close()
}
