package btree

import (
	"fmt"
	"sort"

	"smoothscan/internal/bufferpool"
	"smoothscan/internal/disk"
)

// Incremental inserts.
//
// The bulk-loaded tree keeps its leaves physically contiguous — the
// property that makes leaf traversal sequential and that the paper's
// index-scan cost model (Eq. 11) assumes. Split-based in-place inserts
// would destroy that contiguity, so new entries go to a sorted
// in-memory delta instead (the classic read-optimised-store design):
// iterators merge the on-disk run with the delta transparently, and
// Compact rebuilds the on-disk run when the delta has grown enough.
// Queries therefore keep both correctness (all entries visible) and the
// cost profile the experiments measure (delta probes are CPU-only).

// Insert adds an entry to the in-memory delta, keeping it sorted by
// (key, TID) with a binary-search insert. Sorting here, under the
// writer's exclusive access, is what lets any number of concurrent
// readers seek into the delta without writing it.
func (t *Tree) Insert(e Entry) {
	i := sort.Search(len(t.delta), func(i int) bool { return less(e, t.delta[i]) })
	t.delta = append(t.delta, Entry{})
	copy(t.delta[i+1:], t.delta[i:])
	t.delta[i] = e
	t.numKeys++
}

// DeltaLen returns the number of entries waiting in the delta.
func (t *Tree) DeltaLen() int { return len(t.delta) }

func less(a, b Entry) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.TID.Less(b.TID)
}

// Compact merges the delta into a freshly bulk-loaded on-disk run,
// restoring contiguous leaves. The old pages are abandoned (the
// simulated device is append-only; a real system would reclaim them).
func (t *Tree) Compact(dev *disk.Device, pool *bufferpool.Pool) error {
	entries := make([]Entry, 0, t.numKeys)
	// Read the existing run directly from the device (compaction is a
	// maintenance operation, like the original bulk load).
	for leaf := int64(0); leaf < t.numLeaves; leaf++ {
		page, err := dev.ReadPage(t.space, leaf)
		if err != nil {
			return err
		}
		if dev.Faulty() && !disk.VerifyChecksum(page) {
			return fmt.Errorf("%w: btree space %d page %d", disk.ErrPageCorrupt, t.space, leaf)
		}
		n := nodeCount(page)
		for i := 0; i < n; i++ {
			entries = append(entries, leafEntry(page, i))
		}
	}
	entries = append(entries, t.delta...)
	rebuilt, err := Build(dev, entries)
	if err != nil {
		return err
	}
	if pool != nil {
		pool.InvalidateSpace(t.space)
	}
	*t = *rebuilt
	return nil
}

// deltaCursor walks the sorted delta from the first entry >= lo.
type deltaCursor struct {
	entries []Entry
	pos     int
}

func (t *Tree) deltaSeek(lo int64) *deltaCursor {
	if len(t.delta) == 0 {
		return nil
	}
	pos := sort.Search(len(t.delta), func(i int) bool { return t.delta[i].Key >= lo })
	return &deltaCursor{entries: t.delta, pos: pos}
}

func (c *deltaCursor) peek() (Entry, bool) {
	if c == nil || c.pos >= len(c.entries) {
		return Entry{}, false
	}
	return c.entries[c.pos], true
}

func (c *deltaCursor) advance() { c.pos++ }
