package main

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
)

// The fact table is the 10-int64-column micro table: a dense id, the
// indexed range column val, a low-cardinality group column, a foreign
// key into the dimension table, and six payload columns.
var factCols = []string{"id", "val", "grp", "dk", "p1", "p2", "p3", "p4", "p5", "p6"}

// dimCols is the dimension table's schema; did is dense in [0, dimRows).
var dimCols = []string{"did", "d1", "d2"}

const (
	factTable = "fact"
	dimTable  = "dim"
	colVal    = 1
	colGrp    = 2
	colDK     = 3
	colP1     = 4
	numGroups = 100
	dimRows   = 10000
	payloadHi = 1 << 20
)

// gen derives every generated value from (seed, row, column) with a
// counter-based hash, so any row can be regenerated on demand and the
// same seed always yields the same table.
type gen struct {
	seed   uint64
	domain int64 // val is uniform over [0, domain)
}

func newGen(seed int64, rows int64) gen {
	return gen{seed: mix64(uint64(seed) ^ 0x5eed), domain: 4 * rows}
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (g gen) u(i int64, c int) uint64 { return mix64(g.seed ^ mix64(uint64(i)<<4|uint64(c))) }

// row fills dst (len(factCols)) with fact row i.
func (g gen) row(i int64, dst []int64) {
	dst[0] = i
	dst[colVal] = int64(g.u(i, colVal) % uint64(g.domain))
	dst[colGrp] = int64(g.u(i, colGrp) % numGroups)
	dst[colDK] = int64(g.u(i, colDK) % dimRows)
	for c := colP1; c < len(factCols); c++ {
		dst[c] = int64(g.u(i, c) % payloadHi)
	}
}

// dimRow fills dst (len(dimCols)) with dimension row d.
func (g gen) dimRow(d int64, dst []int64) {
	dst[0] = d
	dst[1] = int64(g.u(-1-d, 1) % payloadHi)
	dst[2] = int64(g.u(-1-d, 2) % payloadHi)
}

// rowHash hashes one result row; a result's digest is the sum of its
// rows' hashes, which is independent of row order.
func rowHash(r []int64) uint64 {
	h := uint64(len(r))
	for _, v := range r {
		h = bits.RotateLeft64(h+uint64(v)*0x9E3779B97F4A7C15, 23)
	}
	return mix64(h)
}

// digest accumulates an order-independent result digest.
type digest struct {
	rows int64
	sum  uint64
}

func (d *digest) add(r []int64) { d.rows++; d.sum += rowHash(r) }

// oracle is the benchmark's own copy of a fact table: the rows sorted
// by val with prefix sums of their hashes, so the expected row count
// and digest of any val range cost two binary searches.
type oracle struct {
	vals    []int64  // val, ascending
	grp     []uint8  // grp, in val order
	p1      []int32  // p1, in val order
	pre     []uint64 // pre[i] = sum of rowHash over the first i rows in val order
	preJoin []uint64 // the same over rows joined with their dimension row; nil when not built
}

func buildOracle(g gen, rows int64, withJoin bool) *oracle {
	type vi struct {
		val int64
		id  int64
	}
	order := make([]vi, rows)
	row := make([]int64, len(factCols))
	for i := range order {
		g.row(int64(i), row)
		order[i] = vi{row[colVal], int64(i)}
	}
	slices.SortFunc(order, func(a, b vi) int {
		return cmp.Or(cmp.Compare(a.val, b.val), cmp.Compare(a.id, b.id))
	})
	o := &oracle{
		vals: make([]int64, rows),
		grp:  make([]uint8, rows),
		p1:   make([]int32, rows),
		pre:  make([]uint64, rows+1),
	}
	joined := make([]int64, len(factCols)+len(dimCols))
	if withJoin {
		o.preJoin = make([]uint64, rows+1)
	}
	for k, e := range order {
		g.row(e.id, row)
		o.vals[k] = e.val
		o.grp[k] = uint8(row[colGrp])
		o.p1[k] = int32(row[colP1])
		o.pre[k+1] = o.pre[k] + rowHash(row)
		if withJoin {
			copy(joined, row)
			g.dimRow(row[colDK], joined[len(factCols):])
			o.preJoin[k+1] = o.preJoin[k] + rowHash(joined)
		}
	}
	return o
}

// bounds returns the val-order positions [a, b) of rows with lo <= val < hi.
func (o *oracle) bounds(lo, hi int64) (int, int) {
	a := sort.Search(len(o.vals), func(i int) bool { return o.vals[i] >= lo })
	b := sort.Search(len(o.vals), func(i int) bool { return o.vals[i] >= hi })
	return a, b
}

// scan is the expected result of SELECT * WHERE lo <= val < hi, over
// the loaded rows and the first nIns inserts.
func (o *oracle) scan(lo, hi int64, ins [][]int64) digest {
	a, b := o.bounds(lo, hi)
	d := digest{rows: int64(b - a), sum: o.pre[b] - o.pre[a]}
	for _, r := range ins {
		if r[colVal] >= lo && r[colVal] < hi {
			d.add(r)
		}
	}
	return d
}

// join is the expected result of the range joined with dim on dk = did.
func (o *oracle) join(lo, hi int64) digest {
	a, b := o.bounds(lo, hi)
	return digest{rows: int64(b - a), sum: o.preJoin[b] - o.preJoin[a]}
}

// groups is the expected result of SELECT grp, count(*), sum(p1) WHERE
// lo <= val < hi GROUP BY grp.
func (o *oracle) groups(lo, hi int64, ins [][]int64) digest {
	var cnt, sum [numGroups]int64
	a, b := o.bounds(lo, hi)
	for k := a; k < b; k++ {
		cnt[o.grp[k]]++
		sum[o.grp[k]] += int64(o.p1[k])
	}
	for _, r := range ins {
		if r[colVal] >= lo && r[colVal] < hi {
			cnt[r[colGrp]]++
			sum[r[colGrp]] += r[colP1]
		}
	}
	var d digest
	for gi := range cnt {
		if cnt[gi] > 0 {
			d.add([]int64{int64(gi), cnt[gi], sum[gi]})
		}
	}
	return d
}
