package btree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"smoothscan/internal/bufferpool"
	"smoothscan/internal/heap"
)

func TestInsertVisibleThroughIterator(t *testing.T) {
	dev := testDevice()
	tr := buildTree(t, dev, seqEntries(100))
	pool := bufferpool.New(dev, 64)

	// Insert entries interleaving with existing keys, plus one below
	// and one above the current range.
	inserted := []Entry{
		{Key: -5, TID: heap.TID{Page: 90, Slot: 0}},
		{Key: 50, TID: heap.TID{Page: 91, Slot: 1}}, // duplicate key
		{Key: 200, TID: heap.TID{Page: 92, Slot: 2}},
	}
	for _, e := range inserted {
		tr.Insert(e)
	}
	if tr.NumKeys() != 103 {
		t.Errorf("NumKeys = %d, want 103", tr.NumKeys())
	}
	if tr.DeltaLen() != 3 {
		t.Errorf("DeltaLen = %d", tr.DeltaLen())
	}
	it, err := tr.SeekGE(pool, -100)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it, 1<<62)
	if len(got) != 103 {
		t.Fatalf("iterator returned %d entries, want 103", len(got))
	}
	// Global (key, TID) order must hold across run and delta.
	for i := 1; i < len(got); i++ {
		if !less(got[i-1], got[i]) {
			t.Fatalf("order violation at %d: %v then %v", i, got[i-1], got[i])
		}
	}
	if got[0].Key != -5 || got[len(got)-1].Key != 200 {
		t.Errorf("boundary inserts misplaced: first %v last %v", got[0], got[len(got)-1])
	}
}

func TestInsertDuplicateKeyTIDOrdering(t *testing.T) {
	dev := testDevice()
	tr := buildTree(t, dev, []Entry{{Key: 5, TID: heap.TID{Page: 3, Slot: 0}}})
	pool := bufferpool.New(dev, 16)
	tr.Insert(Entry{Key: 5, TID: heap.TID{Page: 1, Slot: 0}}) // lower TID
	tr.Insert(Entry{Key: 5, TID: heap.TID{Page: 7, Slot: 0}}) // higher TID
	it, err := tr.SeekGE(pool, 5)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it, 6)
	if len(got) != 3 {
		t.Fatalf("entries = %d", len(got))
	}
	if got[0].TID.Page != 1 || got[1].TID.Page != 3 || got[2].TID.Page != 7 {
		t.Errorf("TID merge order wrong: %v", got)
	}
}

func TestSeekSkipsDeltaBelowLo(t *testing.T) {
	dev := testDevice()
	tr := buildTree(t, dev, seqEntries(50))
	pool := bufferpool.New(dev, 64)
	tr.Insert(Entry{Key: 10, TID: heap.TID{Page: 99, Slot: 0}})
	tr.Insert(Entry{Key: 30, TID: heap.TID{Page: 99, Slot: 1}})
	it, err := tr.SeekGE(pool, 25)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it, 1<<62)
	for _, e := range got {
		if e.Key < 25 {
			t.Fatalf("entry below lo leaked: %v", e)
		}
	}
	// 25..49 from the run plus the key-30 delta entry.
	if len(got) != 26 {
		t.Errorf("entries = %d, want 26", len(got))
	}
}

func TestCompactMergesDelta(t *testing.T) {
	dev := testDevice()
	tr := buildTree(t, dev, seqEntries(200))
	pool := bufferpool.New(dev, 128)
	for i := int64(0); i < 60; i++ {
		tr.Insert(Entry{Key: 1000 + i, TID: heap.TID{Page: i, Slot: 9}})
	}
	if err := tr.Compact(dev, pool); err != nil {
		t.Fatal(err)
	}
	if tr.DeltaLen() != 0 {
		t.Errorf("delta not emptied: %d", tr.DeltaLen())
	}
	if tr.NumKeys() != 260 {
		t.Errorf("NumKeys = %d", tr.NumKeys())
	}
	it, err := tr.SeekGE(pool, -1)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it, 1<<62)
	if len(got) != 260 {
		t.Fatalf("entries after compact = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !less(got[i-1], got[i]) {
			t.Fatalf("order violation after compact at %d", i)
		}
	}
	// Leaves are contiguous again: a full traversal is mostly
	// sequential.
	dev.ResetStats()
	pool.Reset()
	it2, _ := tr.SeekGE(pool, -1)
	_ = collect(t, it2, 1<<62)
	s := dev.Stats()
	if s.SeqAccesses < tr.NumLeaves()-1 {
		t.Errorf("post-compact traversal not sequential: %+v", s)
	}
}

// Property: run + delta iteration is equivalent to a sorted reference
// over all entries, for random splits between bulk load and inserts.
func TestDeltaMergeEquivalenceProperty(t *testing.T) {
	f := func(bulkRaw, deltaRaw []uint8, loRaw uint8) bool {
		dev := testDevice()
		bulk := make([]Entry, len(bulkRaw))
		for i, v := range bulkRaw {
			bulk[i] = Entry{Key: int64(v) % 48, TID: heap.TID{Page: int64(i), Slot: 0}}
		}
		tr, err := Build(dev, bulk)
		if err != nil {
			return false
		}
		all := append([]Entry(nil), bulk...)
		for i, v := range deltaRaw {
			e := Entry{Key: int64(v) % 48, TID: heap.TID{Page: int64(i), Slot: 1}}
			tr.Insert(e)
			all = append(all, e)
		}
		sort.Slice(all, func(i, j int) bool { return less(all[i], all[j]) })
		lo := int64(loRaw) % 52
		var want []Entry
		for _, e := range all {
			if e.Key >= lo {
				want = append(want, e)
			}
		}
		pool := bufferpool.New(dev, 64)
		it, err := tr.SeekGE(pool, lo)
		if err != nil {
			return false
		}
		var got []Entry
		for {
			e, ok, err := it.Next()
			if err != nil {
				return false
			}
			if !ok {
				break
			}
			got = append(got, e)
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestUnsortedInsertBatch(t *testing.T) {
	dev := testDevice()
	tr := buildTree(t, dev, nil)
	pool := bufferpool.New(dev, 32)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		tr.Insert(Entry{Key: rng.Int63n(50), TID: heap.TID{Page: int64(i), Slot: 0}})
	}
	it, err := tr.SeekGE(pool, -1)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, it, 1<<62)
	if len(got) != 100 {
		t.Fatalf("entries = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !less(got[i-1], got[i]) {
			t.Fatalf("order violation at %d", i)
		}
	}
}

// TestConcurrentSeekAfterInsert opens iterators from several goroutines
// at once after a run of out-of-order inserts: the delta is already
// sorted when the readers arrive, so reads never write shared state.
// It only proves anything under the race detector.
func TestConcurrentSeekAfterInsert(t *testing.T) {
	dev := testDevice()
	tr := buildTree(t, dev, seqEntries(100))
	pool := bufferpool.New(dev, 64)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		tr.Insert(Entry{Key: rng.Int63n(200), TID: heap.TID{Page: int64(100 + i), Slot: 0}})
	}
	const readers = 4
	counts := make(chan int, readers)
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			it, err := tr.SeekGE(pool, -1)
			if err != nil {
				errs <- err
				return
			}
			n := 0
			var prev Entry
			for {
				e, ok, err := it.Next()
				if err != nil {
					errs <- err
					return
				}
				if !ok {
					break
				}
				if n > 0 && !less(prev, e) {
					errs <- fmt.Errorf("order violation at %d: %v then %v", n, prev, e)
					return
				}
				prev = e
				n++
			}
			counts <- n
		}()
	}
	for r := 0; r < readers; r++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case n := <-counts:
			if n != 150 {
				t.Errorf("reader saw %d entries, want 150", n)
			}
		}
	}
}
