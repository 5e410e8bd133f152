package main

import (
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"postlob"
	"postlob/internal/obs"
)

// procStat is the process-wide cost so far: CPU from getrusage, heap
// allocation and GC from runtime/metrics.
type procStat struct {
	cpu      time.Duration
	alloc    uint64
	gcCPU    float64 // seconds
	gcCycles uint64
}

func readProc() procStat {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return procStat{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		gcCycles: s[2].Value.Uint64(),
	}
}

// probe is everything read at one instant around a measured phase.
type probe struct {
	at   time.Time
	proc procStat
	obs  obs.Snap
	pool postlob.Stats // the primary's own buffer pool
	dev  devCounts     // the primary's data relations
	wal  devCounts     // the primary's WAL relations
	net  netCounts
}

type netCounts struct{ bytesOut, writes int64 }

func takeProbe(db *postlob.DB, dm *devMeter, nm *netMeter) probe {
	return probe{
		at:   time.Now(),
		proc: readProc(),
		obs:  postlob.ObsSnapshot(),
		pool: db.Stats(),
		dev:  dm.data.load(),
		wal:  dm.wal.load(),
		net:  netCounts{bytesOut: nm.bytesOut.Load(), writes: nm.writes.Load()},
	}
}

// phaseTotals are what the clients themselves counted in a phase.
type phaseTotals struct {
	ops      int64 // completed ops of every kind
	lobBytes int64 // LOB payload bytes the readers received
	putBytes int64 // user bytes acknowledged by PUTs
}

func totals(ops []opRec) phaseTotals {
	t := phaseTotals{ops: int64(len(ops))}
	for _, op := range ops {
		if op.kind == opPut {
			t.putBytes += op.bytes
		} else {
			t.lobBytes += op.bytes
		}
	}
	return t
}

// recordPhase turns two probes and the clients' totals into the
// allocation metric and the per-layer counter metrics every workload
// shares.
func recordPhase(rep *report, a, b probe, tot phaseTotals) {
	wall := b.at.Sub(a.at)
	ops := float64(tot.ops)
	perOp := func(name string, counter string) {
		rep.setRatio(name, deltaRatio(a.obs.Counter(counter), b.obs.Counter(counter), counter, 0, tot.ops, "ops"), "count")
	}
	counter := func(name string) int64 { return b.obs.CounterDelta(a.obs, name) }

	rep.set("alloc_kb_per_op", float64(b.proc.alloc-a.proc.alloc)/1024/ops, "KiB")
	rep.set("throughput_ops_per_s", ops/wall.Seconds(), "1/s")

	perOp("heap.fetches_per_op", "heap.fetches")
	perOp("heap.latch_waits_per_op", "heap.read_latch_waits")
	perOp("btree.descents_per_op", "btree.descents")
	perOp("core.chunk_loads_per_op", "lob.fchunk.chunk_loads")
	perOp("buffer.evictions_per_op", "pool.evictions")
	perOp("buffer.latch_waits_per_op", "pool.latch_waits")
	perOp("gateway.stream.chunks_per_op", "gateway.stream.chunks_out")
	rep.setRatio("core.read_amp", ratio{
		Num: float64(counter("lob.fchunk.chunk_read_bytes")), NumFrom: "lob.fchunk.chunk_read_bytes",
		Den: float64(tot.lobBytes), DenFrom: "LOB bytes received",
	}, "ratio")
	rep.setRatio("btree.splits_per_mib_put", ratio{
		Num: float64(counter("btree.splits")), NumFrom: "btree.splits",
		Den: float64(tot.putBytes) / (1 << 20), DenFrom: "MiB PUT",
	}, "count")

	hits := b.pool.BufferHits - a.pool.BufferHits
	misses := b.pool.BufferMisses - a.pool.BufferMisses
	rep.setRatio("buffer.hit_ratio", ratio{
		Num: float64(hits), NumFrom: "primary DB.Stats hits",
		Den: float64(hits + misses), DenFrom: "lookups",
	}, "ratio")
	rep.setRatio("buffer.prefetch.installed_ratio", deltaRatio(
		a.obs.Counter("buffer.prefetch.installed"), b.obs.Counter("buffer.prefetch.installed"), "buffer.prefetch.installed",
		a.obs.Counter("buffer.prefetch.pages_read"), b.obs.Counter("buffer.prefetch.pages_read"), "buffer.prefetch.pages_read"), "ratio")
	rep.set("buffer.dirty_foreground_evictions", float64(counter("buffer.evict.dirty_foreground")), "count")
	rep.set("buffer.bgwriter.pages_per_s", float64(counter("buffer.bgwriter.pages_written"))/wall.Seconds(), "1/s")
	missHist := histDelta(a.obs, b.obs, "pool.miss_read_latency")
	rep.set("buffer.miss_read_mean_ms", missHist.meanMs(), "ms")

	rep.setRatio("storage.data.reads_per_op", ratio{
		Num: float64(b.dev.ReadBlocks - a.dev.ReadBlocks), NumFrom: "data blocks read",
		Den: ops, DenFrom: "ops",
	}, "count")
	rep.setRatio("storage.data.read_amp", ratio{
		Num: float64(b.dev.ReadBlocks-a.dev.ReadBlocks) * 8192, NumFrom: "data bytes read",
		Den: float64(tot.lobBytes), DenFrom: "LOB bytes received",
	}, "ratio")
	rep.setRatio("storage.data.write_amp", ratio{
		Num: float64(b.dev.WriteBytes - a.dev.WriteBytes), NumFrom: "data bytes written",
		Den: float64(tot.putBytes), DenFrom: "user bytes PUT",
	}, "ratio")
	rep.setRatio("storage.busy_frac", ratio{
		Num: float64(b.dev.BusyNs - a.dev.BusyNs + b.wal.BusyNs - a.wal.BusyNs), NumFrom: "ns in primary device calls",
		Den: float64(wall), DenFrom: "ns wall",
	}, "ratio")
	rep.setRatio("wal.bytes_per_user_byte", ratio{
		Num: float64(b.wal.WriteBytes - a.wal.WriteBytes), NumFrom: "WAL bytes written",
		Den: float64(tot.putBytes), DenFrom: "user bytes PUT",
	}, "ratio")
	rep.setRatio("wal.group_size", deltaRatio(
		a.obs.Counter("wal.group_commit_txns"), b.obs.Counter("wal.group_commit_txns"), "wal.group_commit_txns",
		a.obs.Counter("wal.fsyncs"), b.obs.Counter("wal.fsyncs"), "wal.fsyncs"), "count")
	rep.setRatio("txn.abort_frac", deltaRatio(
		a.obs.Counter("txn.aborts"), b.obs.Counter("txn.aborts"), "txn.aborts",
		a.obs.Counter("txn.begins"), b.obs.Counter("txn.begins"), "txn.begins"), "ratio")
	rep.set("vacuum.rounds", float64(counter("vacuum.rounds")), "count")
	rep.set("vacuum.reclaimed_per_s", float64(counter("vacuum.reclaimed"))/wall.Seconds(), "1/s")
	rep.setRatio("repl.shipped_per_wal_byte", ratio{
		Num: float64(counter("repl.bytes_shipped")), NumFrom: "repl.bytes_shipped",
		Den: float64(b.wal.WriteBytes - a.wal.WriteBytes), DenFrom: "WAL bytes written",
	}, "ratio")
	rep.set("repl.apply_batch_mean_ms", histDelta(a.obs, b.obs, "repl.apply_batch").meanMs(), "ms")

	rep.setRatio("wire.bytes_per_lob_byte", ratio{
		Num: float64(b.net.bytesOut - a.net.bytesOut), NumFrom: "server bytes written",
		Den: float64(tot.lobBytes), DenFrom: "LOB bytes received",
	}, "ratio")
	rep.setRatio("wire.writes_per_op", ratio{
		Num: float64(b.net.writes - a.net.writes), NumFrom: "server conn writes",
		Den: ops, DenFrom: "ops",
	}, "count")

	cpu := (b.proc.cpu - a.proc.cpu).Seconds()
	rep.setRatio("runtime.gc_cpu_frac", ratio{
		Num: b.proc.gcCPU - a.proc.gcCPU, NumFrom: "GC CPU s (runtime estimate)",
		Den: cpu, DenFrom: "process CPU s",
	}, "ratio")
	rep.setRatio("runtime.gc_cycles_per_kop", ratio{
		Num: float64(b.proc.gcCycles - a.proc.gcCycles), NumFrom: "GC cycles",
		Den: ops / 1000, DenFrom: "kops",
	}, "count")
}

// histLite is the count and sum of one obs histogram over a phase.
type histLite struct {
	count uint64
	sum   time.Duration
}

func histDelta(a, b obs.Snap, name string) histLite {
	x, y := a.Hist(name), b.Hist(name)
	return histLite{count: y.Count - x.Count, sum: y.Sum - x.Sum}
}

func (h histLite) meanMs() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count) / float64(time.Millisecond)
}

// handlerMsPerOp sums the gateway's own handler timers over a phase and
// divides by ops: server time per op, whichever protocol served it.
func handlerMsPerOp(rep *report, a, b obs.Snap, ops int64, timers ...string) {
	var sum time.Duration
	for _, t := range timers {
		sum += histDelta(a, b, t).sum
	}
	rep.set("gateway.handler_ms_per_op", float64(sum)/float64(time.Millisecond)/float64(ops), "ms")
	rep.notes["gateway.handler_ms_per_op"] = "sum of " + strings.Join(timers, "+") + " / ops"
}
