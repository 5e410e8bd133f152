package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"time"
)

// The measured phase is cut into one-second windows. Rates, CPU per op,
// medians and the heap peak are computed per window and reported as the
// median over windows, so a burst of load from outside the process moves
// one or two windows, not the reported figure. Tail percentiles pool every
// sample of the phase, since a window holds too few of them.

const window = time.Second

// opKind classifies a completed op.
type opKind uint8

const (
	opRange opKind = iota // an 8 KiB range read
	opGet                 // a whole-object read
	opPut                 // an acknowledged PUT
)

// opRec is one completed op of a measured phase.
type opRec struct {
	end   time.Duration // completion, since the phase started
	lat   time.Duration
	kind  opKind
	bytes int64 // LOB bytes received (reads) or sent (PUTs)
}

// winStat is what the sampler saw in one window.
type winStat struct {
	cpu     time.Duration // process CPU spent in the window
	heapMax uint64        // highest heap in use sampled in the window
}

// sampler reads the heap every heapSampleEvery and the process CPU at
// every window boundary, from the phase start until stopped.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	wins []winStat // complete windows only
}

const heapSampleEvery = 5 * time.Millisecond

func startSampler(start time.Time) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		cpu0 := readProc().cpu
		next := start.Add(window)
		var cur winStat
		for {
			metrics.Read(heap)
			if v := heap[0].Value.Uint64(); v > cur.heapMax {
				cur.heapMax = v
			}
			if now := time.Now(); !now.Before(next) {
				cpu := readProc().cpu
				cur.cpu = cpu - cpu0
				s.wins = append(s.wins, cur)
				cpu0, cur = cpu, winStat{}
				next = next.Add(window)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the complete windows.
func (s *sampler) Stop() []winStat {
	close(s.stop)
	s.wg.Wait()
	return s.wins
}

// windowMetrics records the per-window end-to-end metrics: read
// throughput, CPU per op, range and whole-object medians and the heap
// peak, each the median over the phase's complete windows. A phase
// shorter than one window (the warm-up) records none of them.
func windowMetrics(rep *report, ops []opRec, wins []winStat) {
	n := len(wins)
	if n == 0 {
		return
	}
	type acc struct {
		ops          int
		readBytes    int64
		ranges, gets []time.Duration
	}
	per := make([]acc, n)
	for _, op := range ops {
		w := int(op.end / window)
		if w >= n {
			continue
		}
		a := &per[w]
		a.ops++
		switch op.kind {
		case opRange:
			a.ranges = append(a.ranges, op.lat)
			a.readBytes += op.bytes
		case opGet:
			a.gets = append(a.gets, op.lat)
			a.readBytes += op.bytes
		}
	}
	var mb, cpu, rangeP50, getP50, heap []float64
	for i, a := range per {
		mb = append(mb, float64(a.readBytes)/(1<<20)/window.Seconds())
		if a.ops > 0 {
			cpu = append(cpu, float64(wins[i].cpu)/float64(time.Millisecond)/float64(a.ops))
		}
		if len(a.ranges) > 0 {
			rangeP50 = append(rangeP50, percentile(durationsMs(a.ranges), 0.5).Value)
		}
		if len(a.gets) > 0 {
			getP50 = append(getP50, percentile(durationsMs(a.gets), 0.5).Value)
		}
		heap = append(heap, float64(wins[i].heapMax)/(1<<20))
	}
	note := func(name, what string, vs []float64) {
		rep.notes[name] = fmt.Sprintf("median over %d %v windows of %s", len(vs), window, what)
		if q1, q2, q3, ok := quartiles(vs); ok && q2 != 0 {
			rep.notes[name] += fmt.Sprintf("; window quartile spread %.3f", (q3-q1)/q2)
		}
	}
	rep.set("read_mb_per_s", median(mb), "MB/s")
	note("read_mb_per_s", "MiB of LOB payload received by readers per second", mb)
	rep.set("cpu_ms_per_op", median(cpu), "ms")
	note("cpu_ms_per_op", "process user+sys CPU per completed op (client and server share the process)", cpu)
	rep.set("range_p50_ms", median(rangeP50), "ms")
	note("range_p50_ms", "the window's median 8 KiB range latency", rangeP50)
	rep.set("get_p50_ms", median(getP50), "ms")
	note("get_p50_ms", "the window's median whole-object latency", getP50)
	rep.set("peak_heap_mb", median(heap), "MiB")
	note("peak_heap_mb", "the window's highest Go heap in use, sampled every 5ms", heap)
	if len(rangeP50) < n || len(getP50) < n {
		rep.fail("a window completed no range or no whole-object read")
	}
}

// tailMetrics records the pooled percentiles of a phase.
func tailMetrics(rep *report, ops []opRec) {
	var ranges, gets []time.Duration
	for _, op := range ops {
		switch op.kind {
		case opRange:
			ranges = append(ranges, op.lat)
		case opGet:
			gets = append(gets, op.lat)
		}
	}
	rep.setTail("range_p99_ms", percentile(durationsMs(ranges), 0.99), "ms")
	rep.setTail("get_p99_ms", percentile(durationsMs(gets), 0.99), "ms")
}
