package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"time"

	"smoothscan"
)

// span is one timed call at a layer boundary. Spans of one operation
// share op; parent indexes the enclosing span in the same buffer (-1
// for an operation's root span).
type span struct {
	name       string
	op         int64
	parent     int32
	start, end int64 // ns since the phase started
}

// spanBuf holds one client's spans in memory; it is written out when
// the benchmark ends. A nil *spanBuf records nothing, which is how the
// untraced runs call the same code.
type spanBuf struct {
	base   time.Time
	client int32
	spans  []span
}

func newSpanBuf(base time.Time, client int32) *spanBuf {
	return &spanBuf{base: base, client: client, spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index (-1 when not tracing).
func (b *spanBuf) begin(name string, op int64, parent int32) int32 {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: name, op: op, parent: parent, start: int64(time.Since(b.base))})
	return int32(len(b.spans) - 1)
}

// end closes span i.
func (b *spanBuf) end(i int32) {
	if b == nil || i < 0 {
		return
	}
	b.spans[i].end = int64(time.Since(b.base))
}

// spanSummary is the distribution of one span name over a phase.
type spanSummary struct {
	p50us, p99us float64
	share        float64 // summed duration over summed root-span duration
	count        int
}

// summarize groups spans by name. rootName names the per-operation
// root span that shares are taken against.
func summarize(bufs []*spanBuf, rootName string) map[string]spanSummary {
	durs := map[string][]float64{}
	var rootTotal float64
	for _, b := range bufs {
		for _, s := range b.spans {
			d := float64(s.end-s.start) / 1e3
			durs[s.name] = append(durs[s.name], d)
			if s.name == rootName {
				rootTotal += d
			}
		}
	}
	out := map[string]spanSummary{}
	for name, ds := range durs {
		slices.Sort(ds)
		var sum float64
		for _, d := range ds {
			sum += d
		}
		ss := spanSummary{p50us: quantile(ds, 0.5), p99us: quantile(ds, 0.99), count: len(ds)}
		if rootTotal > 0 {
			ss.share = sum / rootTotal
		}
		out[name] = ss
	}
	return out
}

// writeSpans writes every span as CSV: client, op, id, parent, name,
// start_ns, end_ns.
func writeSpans(path string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "client,op,id,parent,name,start_ns,end_ns")
	for _, b := range bufs {
		for i, s := range b.spans {
			fmt.Fprintf(w, "%d,%d,%d,%d,%s,%d,%d\n", b.client, s.op, i, s.parent, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStats accumulates the per-operation engine counters a traced
// phase reads from each result's ExecStats.
type layerStats struct {
	smoothScans      int64 // Smooth Scan executions seen (one per shard slice when sharded)
	triggered        int64 // of those, scans whose morphing trigger fired
	pagesFetched     int64
	pagesWithResults int64
	leafSkips        int64
	rcHits, rcDirect int64 // ordered Smooth Scan Result Cache
	shardSlots       int64 // shard executions considered by read operations
	shardPruned      int64
	shardRows        []int64 // rows delivered per shard
	writes           int64
}

func (l *layerStats) smooth(st smoothscan.SmoothStats) {
	l.smoothScans++
	if st.TriggeredAt >= 0 {
		l.triggered++
	}
	l.pagesFetched += st.PagesFetched
	l.pagesWithResults += st.PagesWithResults
	l.leafSkips += st.LeafPointersSkipped
	l.rcHits += st.CacheHits
	l.rcDirect += st.DirectReturns
}

func (l *layerStats) merge(o *layerStats) {
	l.smoothScans += o.smoothScans
	l.triggered += o.triggered
	l.pagesFetched += o.pagesFetched
	l.pagesWithResults += o.pagesWithResults
	l.leafSkips += o.leafSkips
	l.rcHits += o.rcHits
	l.rcDirect += o.rcDirect
	l.shardSlots += o.shardSlots
	l.shardPruned += o.shardPruned
	for i, r := range o.shardRows {
		if i >= len(l.shardRows) {
			l.shardRows = append(l.shardRows, 0)
		}
		l.shardRows[i] += r
	}
	l.writes += o.writes
}
