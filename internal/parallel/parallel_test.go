package parallel

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"smoothscan/internal/exec"
	"smoothscan/internal/tuple"
)

func testSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Column{Name: "k", Type: tuple.Int64},
		tuple.Column{Name: "v", Type: tuple.Int64},
	)
}

func rowsOf(pairs ...[2]int64) []tuple.Row {
	out := make([]tuple.Row, len(pairs))
	for i, p := range pairs {
		out[i] = tuple.IntsRow(p[0], p[1])
	}
	return out
}

func TestPartitionPages(t *testing.T) {
	cases := []struct {
		pages int64
		p     int
		want  int
	}{
		{100, 4, 4},
		{7, 4, 4},
		{3, 8, 3},  // clamped to page count
		{0, 4, 1},  // single empty shard
		{10, 0, 1}, // p < 1 behaves like serial
	}
	for _, c := range cases {
		shards := PartitionPages(c.pages, c.p)
		if len(shards) != c.want {
			t.Errorf("PartitionPages(%d, %d) = %d shards, want %d", c.pages, c.p, len(shards), c.want)
			continue
		}
		// Shards must tile [0, pages) contiguously and disjointly.
		var lo int64
		for i, sh := range shards {
			if sh.Index != i {
				t.Errorf("shard %d has Index %d", i, sh.Index)
			}
			if sh.PageLo != lo {
				t.Errorf("shard %d starts at %d, want %d", i, sh.PageLo, lo)
			}
			if sh.PageHi < sh.PageLo {
				t.Errorf("shard %d inverted: [%d,%d)", i, sh.PageLo, sh.PageHi)
			}
			if c.pages > 0 && sh.PageHi == sh.PageLo {
				t.Errorf("shard %d empty with %d pages to split", i, c.pages)
			}
			lo = sh.PageHi
		}
		if lo != c.pages {
			t.Errorf("shards cover [0,%d), want [0,%d)", lo, c.pages)
		}
		// Near-equal: sizes differ by at most one page.
		var minSz, maxSz int64 = 1 << 62, -1
		for _, sh := range shards {
			sz := sh.PageHi - sh.PageLo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		if c.pages > 0 && maxSz-minSz > 1 {
			t.Errorf("PartitionPages(%d, %d): shard sizes range [%d,%d]", c.pages, c.p, minSz, maxSz)
		}
	}
}

// drainPairs drains a Scan and returns the (k, v) pairs it produced.
func drainPairs(t *testing.T, s *Scan) [][2]int64 {
	t.Helper()
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var got [][2]int64
	b := tuple.NewBatchFor(s.Schema(), 7) // deliberately small, forces partial copies
	for {
		n, err := s.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return got
		}
		for i := 0; i < n; i++ {
			r := b.Row(i)
			got = append(got, [2]int64{r.Int(0), r.Int(1)})
		}
	}
}

func TestUnorderedFanIn(t *testing.T) {
	schema := testSchema()
	var workers []Worker
	want := map[[2]int64]int{}
	for w := 0; w < 4; w++ {
		var rows []tuple.Row
		for i := 0; i < 100; i++ {
			pair := [2]int64{int64(w*1000 + i), int64(w)}
			want[pair]++
			rows = append(rows, tuple.IntsRow(pair[0], pair[1]))
		}
		workers = append(workers, Worker{Op: exec.NewValues(schema, rows)})
	}
	s, err := NewScan(workers, Options{Schema: schema, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	got := drainPairs(t, s)
	if len(got) != 400 {
		t.Fatalf("drained %d rows, want 400", len(got))
	}
	for _, pair := range got {
		want[pair]--
		if want[pair] < 0 {
			t.Fatalf("row %v duplicated or unexpected", pair)
		}
	}
	for pair, n := range want {
		if n != 0 {
			t.Errorf("row %v missing", pair)
		}
	}
}

func TestOrderedMergeReproducesSerialOrder(t *testing.T) {
	schema := testSchema()
	// Duplicate keys across workers: ties must resolve in worker-index
	// order (the shard page order), reproducing a serial (key, TID)
	// scan over increasing page ranges.
	w0 := rowsOf([2]int64{1, 0}, [2]int64{5, 0}, [2]int64{5, 0}, [2]int64{9, 0})
	w1 := rowsOf([2]int64{2, 1}, [2]int64{5, 1}, [2]int64{9, 1})
	w2 := rowsOf([2]int64{5, 2}, [2]int64{6, 2})
	s, err := NewScan([]Worker{
		{Op: exec.NewValues(schema, w0)},
		{Op: exec.NewValues(schema, w1)},
		{Op: exec.NewValues(schema, w2)},
	}, Options{Schema: schema, Ordered: true, KeyCol: 0, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := drainPairs(t, s)
	want := [][2]int64{
		{1, 0}, {2, 1}, {5, 0}, {5, 0}, {5, 1}, {5, 2}, {6, 2}, {9, 0}, {9, 1},
	}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i][0] < got[j][0] }) {
		t.Error("merge output not key-sorted")
	}
}

// failOp errors after producing a few rows.
type failOp struct {
	exec.Operator
	left int
}

func (f *failOp) NextBatch(b *tuple.Batch) (int, error) {
	b.Reset()
	if f.left <= 0 {
		return 0, errors.New("boom")
	}
	f.left--
	b.Append(tuple.IntsRow(1, 1))
	return 1, nil
}

func newFailOp(schema *tuple.Schema, rowsBeforeFailure int) *failOp {
	return &failOp{Operator: exec.NewValues(schema, nil), left: rowsBeforeFailure}
}

func TestWorkerErrorPropagates(t *testing.T) {
	schema := testSchema()
	for _, ordered := range []bool{false, true} {
		t.Run(fmt.Sprintf("ordered=%v", ordered), func(t *testing.T) {
			var rows []tuple.Row
			for i := 0; i < 5000; i++ {
				rows = append(rows, tuple.IntsRow(int64(i), 0))
			}
			s, err := NewScan([]Worker{
				{Op: exec.NewValues(schema, rows)},
				{Op: newFailOp(schema, 3)},
			}, Options{Schema: schema, Ordered: ordered, KeyCol: 0, BatchSize: 8})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Open(); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			b := tuple.NewBatchFor(schema, 8)
			var sawErr error
			for i := 0; i < 10000; i++ {
				n, err := s.NextBatch(b)
				if err != nil {
					sawErr = err
					break
				}
				if n == 0 {
					break
				}
			}
			if sawErr == nil || sawErr.Error() != "boom" {
				t.Fatalf("worker error not propagated, got %v", sawErr)
			}
		})
	}
}

func TestCloseEarlyStopsWorkers(t *testing.T) {
	schema := testSchema()
	var workers []Worker
	for w := 0; w < 4; w++ {
		var rows []tuple.Row
		for i := 0; i < 50_000; i++ {
			rows = append(rows, tuple.IntsRow(int64(i), int64(w)))
		}
		workers = append(workers, Worker{Op: exec.NewValues(schema, rows)})
	}
	s, err := NewScan(workers, Options{Schema: schema, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	b := tuple.NewBatchFor(schema, 64)
	if _, err := s.NextBatch(b); err != nil {
		t.Fatal(err)
	}
	// Close with workers mid-flight; must not hang (test timeout guards).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and fully drain: the operator contract allows reopening.
	got := drainPairs(t, s)
	if len(got) != 4*50_000 {
		t.Fatalf("reopened drain got %d rows, want %d", len(got), 4*50_000)
	}
	if _, err := s.NextBatch(b); !errors.Is(err, ErrClosed) {
		t.Fatalf("NextBatch after Close = %v, want ErrClosed", err)
	}
}

// TestPerTupleAdapter drains the merged scan through one-row batches —
// the tuple-at-a-time pull — smaller than the exchange batches the
// workers hand over.
func TestPerTupleAdapter(t *testing.T) {
	schema := testSchema()
	s, err := NewScan([]Worker{
		{Op: exec.NewValues(schema, rowsOf([2]int64{3, 0}, [2]int64{1, 0}))},
	}, Options{Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Open(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := tuple.NewBatchFor(schema, 1)
	var got []int64
	for {
		n, err := s.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		got = append(got, b.Row(0).Int(0))
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("one-row-batch drain = %v", got)
	}
}
