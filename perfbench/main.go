// Command perfbench is postlob's end-to-end benchmark. It drives the real
// request path from one process — client → gateway (v2 stream or HTTP) →
// core → btree/heap → buffer → storage/wal, with a WAL-shipped replica in
// the mixed workload — checks every byte it reads, and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
//
// It never uses the v1 protocol (internal/server, internal/wire).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// endToEnd lists the metrics --trace 0 reports, with their units. Every
// workload reports every one of them; BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"read_mb_per_s", "MB/s"},
	{"range_p50_ms", "ms"},
	{"get_p50_ms", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_heap_mb", "MiB"},
	{"space_amp", "ratio"},
}

// perLayer lists the metrics --trace 1 reports. Each is defined on every
// workload; a count of an event a workload never causes reads 0 there.
var perLayer = []metricDef{
	{"gateway.round_trips_per_op", "count"},
	{"gateway.handler_ms_per_op", "ms"},
	{"gateway.stream.chunks_per_op", "count"},
	{"gateway.chunk.buffered_hwm", "bytes"},
	{"wire.bytes_per_lob_byte", "ratio"},
	{"wire.writes_per_op", "count"},
	{"core.read_amp", "ratio"},
	{"core.chunk_loads_per_op", "count"},
	{"heap.fetches_per_op", "count"},
	{"heap.latch_waits_per_op", "count"},
	{"btree.descents_per_op", "count"},
	{"btree.splits_per_mib_put", "count"},
	{"buffer.hit_ratio", "ratio"},
	{"buffer.evictions_per_op", "count"},
	{"buffer.prefetch.installed_ratio", "ratio"},
	{"buffer.latch_waits_per_op", "count"},
	{"buffer.dirty_foreground_evictions", "count"},
	{"buffer.bgwriter.pages_per_s", "1/s"},
	{"storage.data.reads_per_op", "count"},
	{"storage.data.read_amp", "ratio"},
	{"storage.data.write_amp", "ratio"},
	{"storage.busy_frac", "ratio"},
	{"wal.bytes_per_user_byte", "ratio"},
	{"wal.group_size", "count"},
	{"txn.abort_frac", "ratio"},
	{"vacuum.rounds", "count"},
	{"repl.lag_bytes_p95", "bytes"},
	{"repl.shipped_per_wal_byte", "ratio"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"trace.root_ms", "ms"},
	{"trace.client_net_ms", "ms"},
	{"trace.server_self_ms", "ms"},
	{"trace.device_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

type metricDef struct{ Name, Unit string }

// setupRepeats is how many times a run builds its workload from an empty
// directory; setup_s is the median.
const setupRepeats = 9

// workload is one benchmark input: how to build it and how to drive it.
type workload interface {
	// stamp describes the workload's inputs and environment.
	stamp() map[string]any
	// setup builds a warmed, ready instance from the empty directory dir.
	setup(dir string) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// load runs the concurrent workload for d and records it in rep.
	load(d time.Duration, rep *report) error
	// serial runs one client's serial ops for d (n == 0) or exactly n
	// ops and returns their latencies; with a tracer every seam records
	// spans into it.
	serial(d time.Duration, n int, tr *tracer) ([]time.Duration, error)
	// finish quiesces the instance, runs the end-of-run checks and
	// records the space metric.
	finish(rep *report) error
	// close shuts every process and goroutine of the instance down.
	close() error
}

// report collects one run's metrics and checks.
type report struct {
	values    map[string]float64
	units     map[string]string
	tails     map[string]tail
	notes     map[string]string
	problems  []string
	attempted int64
	failed    int64
}

func newReport() *report {
	return &report{values: map[string]float64{}, units: map[string]string{}, notes: map[string]string{}, tails: map[string]tail{}}
}

// set records a metric.
func (r *report) set(name string, v float64, unit string) {
	r.values[name] = v
	r.units[name] = unit
}

// setRatio records a ratio and notes its base.
func (r *report) setRatio(name string, x ratio, unit string) {
	r.set(name, x.Value(), unit)
	r.notes[name] = fmt.Sprintf("%g %s / %g %s", x.Num, x.NumFrom, x.Den, x.DenFrom)
}

// setTail records a percentile and notes its sample count; a percentile
// with fewer than minBeyond samples beyond it is noted as unsupported.
func (r *report) setTail(name string, t tail, unit string) {
	r.set(name, t.Value, unit)
	r.tails[name] = t
	r.notes[name] = fmt.Sprintf("p%g of n=%d, %d beyond", t.P*100, t.N, t.Beyond)
	if !t.OK() {
		r.notes[name] += " (too few samples beyond: not a supported percentile)"
	}
}

// fail records a correctness problem.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "read-hot, read-cold or mixed-rw")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from counters and a traced serial run")
	workDir := flag.String("dir", ".bench_build", "directory for the databases (removed at exit)")
	flag.Parse()

	var wl workload
	switch *name {
	case "read-hot":
		wl = readHot(*seed)
	case "read-cold":
		wl = readCold(*seed)
	case "mixed-rw":
		wl = newMixed(*seed)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	root, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := run(wl, root, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if rmErr := os.RemoveAll(root); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	stamp := wl.stamp()
	stamp["workload"] = *name
	stamp["seed"] = *seed
	stamp["seconds"] = *seconds
	stamp["trace"] = *traceFlag
	stamp["nproc"] = runtime.NumCPU()
	stamp["gomaxprocs"] = runtime.GOMAXPROCS(0)
	stamp["go"] = runtime.Version()
	stamp["setup_repeats"] = setupRepeats
	printReport(stamp, rep)

	want := endToEnd
	if *traceFlag == 1 {
		want = perLayer
	}
	metrics := map[string]any{}
	for _, m := range want {
		v, ok := rep.values[m.Name]
		if !ok {
			rep.fail("metric %s was not measured", m.Name)
			continue
		}
		if t, ok := rep.tails[m.Name]; ok && !t.OK() {
			rep.fail("%s: p%g has %d samples beyond it (n=%d), fewer than %d", m.Name, t.P*100, t.Beyond, t.N, minBeyond)
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	correct := len(rep.problems) == 0 && rep.failed == 0
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	last, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(last))
}

// run builds the workload setupRepeats times, keeps the last instance,
// warms it, measures it, and (when traced) runs the serial traced and
// untraced comparison.
func run(wl workload, root string, d time.Duration, traced bool) (*report, error) {
	rep := newReport()
	var setups []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		inst, err = wl.setup(filepath.Join(root, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.set("setup_s", median(setups), "s")
	rep.notes["setup_s"] = fmt.Sprintf("median of %d set-ups: %v", len(setups), roundAll(setups))

	err := measure(inst, d, traced, rep)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	return rep, err
}

// warmup is the unmeasured run of the op mix before the measured phase.
const warmup = 500 * time.Millisecond

func measure(inst instance, d time.Duration, traced bool, rep *report) error {
	scratch := newReport()
	if err := inst.load(warmup, scratch); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	rep.problems = append(rep.problems, scratch.problems...)
	if err := inst.load(d, rep); err != nil {
		return fmt.Errorf("measured phase: %w", err)
	}
	if traced {
		if err := traceRun(inst, d, rep); err != nil {
			return err
		}
	}
	return inst.finish(rep)
}

// traceRun times one client's serial ops untraced, then the same number
// of ops with every seam recording spans, and attributes the traced
// requests' time to client/network, server and device.
func traceRun(inst instance, d time.Duration, rep *report) error {
	serialFor := d / 4
	if serialFor < time.Second {
		serialFor = time.Second
	}
	plain, err := inst.serial(serialFor, 0, nil)
	if err != nil {
		return fmt.Errorf("untraced serial run: %w", err)
	}
	tr := newTracer()
	tracedLat, err := inst.serial(0, len(plain), tr)
	if err != nil {
		return fmt.Errorf("traced serial run: %w", err)
	}
	st := attribute(tr.snapshot())
	if st.Requests == 0 {
		rep.fail("traced run recorded no requests")
		return nil
	}
	perOp := func(ns int64) float64 { return float64(ns) / float64(st.Requests) / 1e6 }
	rep.set("trace.root_ms", perOp(st.Root), "ms")
	rep.set("trace.client_net_ms", perOp(st.ClientNet), "ms")
	rep.set("trace.server_self_ms", perOp(st.ServerSelf), "ms")
	rep.set("trace.device_ms", perOp(st.Device), "ms")
	rep.setRatio("trace.device_frac", ratio{
		Num: float64(st.Device), NumFrom: "ns in device calls inside requests",
		Den: float64(st.Root), DenFrom: "ns in root spans",
	}, "ratio")
	rep.set("trace.background_device_ms", float64(st.Background)/1e6, "ms")
	if sum := st.ClientNet + st.ServerSelf + st.Device; sum != st.Root {
		rep.fail("trace self times sum to %d ns, root spans to %d ns", sum, st.Root)
	}
	pm := median(durationsMs(plain))
	tm := median(durationsMs(tracedLat))
	rep.set("trace.serial_untraced_p50_ms", pm, "ms")
	rep.set("trace.serial_traced_p50_ms", tm, "ms")
	rep.set("trace.overhead_frac", tm/pm-1, "ratio")
	rep.notes["trace.overhead_frac"] = fmt.Sprintf("median of %d traced vs %d untraced serial ops", len(tracedLat), len(plain))
	return nil
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.4f", x)
	}
	return out
}

// printReport prints the stamp and every measured metric, one per line.
func printReport(stamp map[string]any, rep *report) {
	keys := make([]string, 0, len(stamp))
	for k := range stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %s: %v\n", k, stamp[k])
	}
	names := make([]string, 0, len(rep.values))
	for n := range rep.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line := fmt.Sprintf("%-36s %14.6g %s", n, rep.values[n], rep.units[n])
		if note := rep.notes[n]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Printf("%-36s %14d\n%-36s %14d\n", "ops_attempted", rep.attempted, "ops_failed", rep.failed)
	errFrac := 0.0
	if rep.attempted > 0 {
		errFrac = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("%-36s %14.6g ratio\n", "error_frac", errFrac)
}
