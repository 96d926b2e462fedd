// Command perfbench is the repository benchmark: it generates data
// from a seed, sets up one workload, drives it in a closed loop for a
// fixed time, checks every result against its own copy of the data,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics and the layer ladder). See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median and the last instance is the one measured.
const setupReps = 5

func main() {
	var (
		name    = flag.String("workload", "", "workload: analytic-oblivious, served-lookup or sharded-rw")
		seed    = flag.Int64("seed", 1, "seed for the generated data and operation sequences")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced measurement and prints the per-layer metrics")
		out     = flag.String("out", ".bench_build", "directory the span file is written to")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, out string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", seconds)
	}
	build, err := w.prepare(seed)
	if err != nil {
		return err
	}
	var sys system
	// Set-up is timed in process CPU seconds, which the CPU time a shared
	// host steals does not inflate; the wall time is printed beside it.
	var setupCPU, setupWall []float64
	for rep := 0; rep < setupReps; rep++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC()
		t0, cpu0 := time.Now(), processCPU()
		if sys, err = build(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupCPU = append(setupCPU, processCPU()-cpu0)
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	defer sys.close()

	printEnv(w, seed, seconds, traced, sys)
	cycle := w.stopCycle
	dur := time.Duration(seconds) * time.Second
	rep := &report{}
	var attempted, failed int64
	if !traced {
		c0 := sys.counters()
		ph, err := runPhase(sys.clients(), dur, cycle, false)
		if err != nil {
			return err
		}
		c1 := sys.counters()
		attempted, failed = ph.ops, ph.failed
		if err := endToEnd(rep, w, ph, c0, c1, median(setupCPU), median(setupWall), retainedHeapMB()); err != nil {
			return err
		}
	} else {
		a, err := runPhase(sys.clients(), dur/2, cycle, false)
		if err != nil {
			return err
		}
		c0 := sys.counters()
		b, err := runPhase(sys.clients(), dur/2, cycle, true)
		if err != nil {
			return err
		}
		c1 := sys.counters()
		attempted, failed = a.ops+b.ops, a.failed+b.failed
		if err := perLayer(rep, w, a, b, c0, c1); err != nil {
			return err
		}
		lad, err := runLadder(seed)
		if err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
		lad.report(rep)
		path := filepath.Join(out, "spans-"+w.name+".csv")
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		if err := writeSpans(path, b.spans); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	rep.print()
	return rep.printJSON(attempted, failed)
}

// endToEnd derives the end-to-end metrics of an untraced phase.
func endToEnd(rep *report, w workload, ph *phaseResult, c0, c1 counters, setupCPU, setupWall, heapMB float64) error {
	if ph.ops == 0 || len(ph.readLat) == 0 {
		return errNoOps
	}
	io := c1.io.Sub(c0.io)
	rep.add("setup_s", setupCPU, "s")
	rep.add("cpu_ms_per_op", ph.procCPU*1000/float64(ph.ops), "ms")
	rep.add("sim_cost_per_op", (io.IOTime+io.CPUTime)/float64(ph.ops), "cost")
	rep.add("retained_heap_mb", heapMB, "MiB")
	// Printed for people but kept out of the result object: wall-clock
	// throughput and latency swing with the CPU time a shared host
	// steals (see README.md), write latency exists only on sharded-rw,
	// and the failed ratio is 0 by design (attempted and failed carry it).
	rep.info("setup_wall_s", setupWall, "s")
	rep.info("ops_per_s", ph.opsRate, "1/s")
	rep.info("rows_per_s", ph.rowsRate, "1/s")
	rep.info("read_p50_ms", quantile(ph.readLat, 0.5), "ms")
	rep.info("read_p90_ms", quantile(ph.readLat, 0.90), "ms")
	rep.info("read_p99_ms", quantile(ph.readLat, 0.99), "ms")
	if len(ph.writeLat) > 0 {
		rep.info("write_p50_ms", quantile(ph.writeLat, 0.5), "ms")
		rep.info("write_p99_ms", quantile(ph.writeLat, 0.99), "ms")
	} else {
		rep.infoNA("write_p50_ms", "ms")
		rep.infoNA("write_p99_ms", "ms")
	}
	rep.info("failed_op_ratio", float64(ph.failed)/float64(ph.ops), "ratio")
	rep.info("read_samples", float64(len(ph.readLat)), "count")
	rep.info("read_samples_beyond_p99", float64(beyond(ph.readLat, 0.99)), "count")
	rep.info("write_samples", float64(len(ph.writeLat)), "count")
	rep.info("write_samples_beyond_p99", float64(beyond(ph.writeLat, 0.99)), "count")
	rep.info("ops_per_s over the whole phase", float64(ph.ops)/ph.elapsed.Seconds(), "1/s")
	rep.info("host_steal_share", ph.steal, "ratio")
	if ph.firstFail != nil {
		fmt.Printf("first failed operation: %v\n", ph.firstFail)
	}
	return nil
}

// metric is one entry of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type reportLine struct {
	name, unit string
	value      float64
	na         bool // not applicable to this workload
	info       bool // printed for people only, not part of the result object
}

// report collects metrics in print order.
type report struct{ lines []reportLine }

func (r *report) add(name string, v float64, unit string) {
	r.lines = append(r.lines, reportLine{name: name, unit: unit, value: v})
}

// na records a metric that does not apply to the workload: it prints
// as n/a and enters the result object as 0.
func (r *report) na(name, unit string) {
	r.lines = append(r.lines, reportLine{name: name, unit: unit, na: true})
}

func (r *report) info(name string, v float64, unit string) {
	r.lines = append(r.lines, reportLine{name: name, unit: unit, value: v, info: true})
}

func (r *report) infoNA(name, unit string) {
	r.lines = append(r.lines, reportLine{name: name, unit: unit, na: true, info: true})
}

func (r *report) print() {
	for _, l := range r.lines {
		tag := ""
		if l.info {
			tag = "  (not in result object)"
		}
		if l.na {
			fmt.Printf("%-40s n/a %s%s\n", l.name, l.unit, tag)
			continue
		}
		fmt.Printf("%-40s %.6g %s%s\n", l.name, l.value, l.unit, tag)
	}
}

// printJSON prints the result object as the last line of output.
func (r *report) printJSON(attempted, failed int64) error {
	ms := map[string]metric{}
	for _, l := range r.lines {
		if l.info {
			continue
		}
		if math.IsNaN(l.value) || math.IsInf(l.value, 0) {
			return fmt.Errorf("metric %s is %v", l.name, l.value)
		}
		ms[l.name] = metric{Value: l.value, Unit: l.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, attempted, failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
