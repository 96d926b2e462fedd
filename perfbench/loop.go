package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// outcome is one finished operation as its client saw it.
type outcome struct {
	write bool
	rows  int64         // rows delivered to the client
	lat   time.Duration // from the call to cursor close (or write return)
	err   error         // a failed operation; never an oracle mismatch
}

// mismatchError reports a result that disagrees with the oracle. It
// aborts the run: a wrong answer is not a failed operation.
type mismatchError struct{ msg string }

func (e *mismatchError) Error() string { return "oracle mismatch: " + e.msg }

func mismatch(format string, args ...any) error {
	return &mismatchError{msg: fmt.Sprintf(format, args...)}
}

// clientFn runs operation number i of one client's fixed sequence. It
// records spans into tr (nil when tracing is off) and per-op engine
// counters into ls (nil when tracing is off). A returned error is an
// oracle mismatch; failed operations are reported in outcome.err.
type clientFn func(i int64, tr *spanBuf, ls *layerStats) (outcome, error)

// client is one closed-loop caller: it sends its next operation only
// after the previous one has been drained and closed.
type client struct {
	fn   clientFn
	next int64 // next operation index; the sequence continues across phases
}

// phaseResult aggregates one measured phase over all clients.
type phaseResult struct {
	elapsed   time.Duration
	opsRate   float64 // median over windows, see windowRates
	rowsRate  float64
	ops       int64
	failed    int64
	rows      int64
	readLat   []float64 // ms, sorted
	writeLat  []float64 // ms
	spans     []*spanBuf
	layer     layerStats
	mallocs   uint64
	allocB    uint64
	gcCPU     float64
	procCPU   float64 // process CPU seconds
	steal     float64 // share of host CPU time stolen by the hypervisor
	firstFail error
}

// runPhase drives every client in its own goroutine for dur. With
// cycle > 0 a client stops only at a cycle boundary, so every run
// measures whole copies of its stratified operation mix.
func runPhase(clients []*client, dur time.Duration, cycle int64, traced bool) (*phaseResult, error) {
	type part struct {
		ops, failed, rows int64
		done              []opDone
		readLat, writeLat []float64
		tr                *spanBuf
		ls                *layerStats
		firstFail         error
	}
	parts := make([]part, len(clients))
	var abort atomic.Bool
	var fatal error
	var fatalOnce sync.Once
	var wg sync.WaitGroup

	m0 := readRuntime()
	start := time.Now()
	deadline := start.Add(dur)
	for ci, c := range clients {
		p := &parts[ci]
		if traced {
			p.tr = newSpanBuf(start, int32(ci))
			p.ls = &layerStats{}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !abort.Load() {
				if (cycle == 0 || c.next%cycle == 0) && !time.Now().Before(deadline) {
					return
				}
				o, err := c.fn(c.next, p.tr, p.ls)
				c.next++
				if err != nil {
					fatalOnce.Do(func() { fatal = err })
					abort.Store(true)
					return
				}
				p.ops++
				p.done = append(p.done, opDone{at: time.Since(start), rows: o.rows})
				if o.err != nil {
					p.failed++
					if p.firstFail == nil {
						p.firstFail = o.err
					}
					continue
				}
				p.rows += o.rows
				ms := float64(o.lat.Nanoseconds()) / 1e6
				if o.write {
					p.writeLat = append(p.writeLat, ms)
				} else {
					p.readLat = append(p.readLat, ms)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	m1 := readRuntime()
	if fatal != nil {
		return nil, fatal
	}
	r := &phaseResult{elapsed: elapsed}
	var done [][]opDone
	for _, p := range parts {
		done = append(done, p.done)
		r.ops += p.ops
		r.failed += p.failed
		r.rows += p.rows
		r.readLat = append(r.readLat, p.readLat...)
		r.writeLat = append(r.writeLat, p.writeLat...)
		if p.tr != nil {
			r.spans = append(r.spans, p.tr)
			r.layer.merge(p.ls)
		}
		if r.firstFail == nil {
			r.firstFail = p.firstFail
		}
	}
	r.mallocs = m1.mallocs - m0.mallocs
	r.allocB = m1.allocBytes - m0.allocBytes
	if cpu := m1.cpuTotal - m0.cpuTotal; cpu > 0 {
		r.gcCPU = (m1.cpuGC - m0.cpuGC) / cpu
	}
	r.procCPU = m1.procCPU - m0.procCPU
	if m1.ticks > m0.ticks {
		r.steal = float64(m1.steal-m0.steal) / float64(m1.ticks-m0.ticks)
	}
	slices.Sort(r.readLat)
	slices.Sort(r.writeLat)
	r.opsRate, r.rowsRate = windowRates(done, cycle, elapsed)
	return r, nil
}

// opDone records when an operation finished, relative to the phase start.
type opDone struct {
	at   time.Duration
	rows int64
}

// windowRates returns the median, over measurement windows, of
// operations and rows completed per second, so a transient stall on a
// shared machine moves one window rather than the whole figure. With
// cycle > 0 each client's cycles are the windows (every cycle holds
// the same operation mix); otherwise the phase is cut into one-second
// windows and the trailing partial window is dropped.
func windowRates(done [][]opDone, cycle int64, elapsed time.Duration) (opsRate, rowsRate float64) {
	var ops, rows []float64
	if cycle > 0 {
		for _, d := range done {
			prev := time.Duration(0)
			for k := cycle - 1; k < int64(len(d)); k += cycle {
				secs := (d[k].at - prev).Seconds()
				var n int64
				for _, o := range d[k-cycle+1 : k+1] {
					n += o.rows
				}
				ops = append(ops, float64(cycle)/secs)
				rows = append(rows, float64(n)/secs)
				prev = d[k].at
			}
		}
	} else {
		win := min(time.Second, elapsed)
		nw := int(elapsed / win)
		ops, rows = make([]float64, nw), make([]float64, nw)
		for _, d := range done {
			for _, o := range d {
				if w := int(o.at / win); w < nw {
					ops[w] += 1 / win.Seconds()
					rows[w] += float64(o.rows) / win.Seconds()
				}
			}
		}
	}
	return median(ops), median(rows)
}

type runtimeSample struct {
	mallocs, allocBytes uint64
	cpuGC, cpuTotal     float64 // runtime estimates: GC share of GOMAXPROCS × wall time
	procCPU             float64 // user+system CPU seconds of the process
	steal, ticks        uint64  // host-wide stolen and total CPU ticks
}

var runtimeMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSample {
	s := slices.Clone(runtimeMetrics)
	metrics.Read(s)
	steal, ticks := hostTicks()
	return runtimeSample{
		mallocs:    s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		cpuGC:      s[2].Value.Float64(),
		cpuTotal:   s[3].Value.Float64(),
		procCPU:    processCPU(),
		steal:      steal,
		ticks:      ticks,
	}
}

func processCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// hostTicks reads the stolen and total CPU ticks of the machine from
// /proc/stat: time a hypervisor gave to other guests shows as steal,
// the usual cause of run-to-run drift on a shared virtual machine.
// Both are 0 where the file does not exist.
func hostTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// retainedHeapMB is the live heap after two forced collections.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	k := int(q*float64(len(xs))+0.5) - 1
	return xs[max(0, min(k, len(xs)-1))]
}

// beyond counts the samples strictly above the q-quantile.
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for i := len(xs) - 1; i >= 0 && xs[i] > v; i-- {
		n++
	}
	return n
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

var errNoOps = errors.New("no operation completed")
