package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// The traced run records spans from the benchmark's own files, at the
// seams the program already exposes: the client call (the root span of a
// request), server entry (an HTTP handler wrapper, or the first byte in
// and last byte out on a wrapped v2 connection), and device calls through
// the storage.Manager wrapper. Spans stay in memory until the run ends.
//
// Ops in the traced run are serial, so any span that overlaps a root's
// interval belongs to that request; device work outside every request
// goes to a background track.

// Span kinds.
const (
	spanRoot      = "root"
	spanServer    = "server"
	spanNetIn     = "net.in"  // a point event: bytes arrived at the server
	spanNetOut    = "net.out" // a point event: the server wrote bytes
	spanDevData   = "device.data"
	spanDevWAL    = "device.wal"
	spanDevPrefix = "device."
)

// span is one recorded interval, in nanoseconds since the tracer started.
// Point events have Start == End.
type span struct {
	Kind       string
	Start, End int64
}

// tracer collects spans from any goroutine.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span that began at start and ends now.
func (t *tracer) add(kind string, start time.Time) {
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{Kind: kind, Start: int64(start.Sub(t.t0)), End: int64(end)})
	t.mu.Unlock()
}

// point records a point event now.
func (t *tracer) point(kind string) {
	at := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Kind: kind, Start: at, End: at})
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

func (iv interval) len() int64 {
	if iv.hi < iv.lo {
		return 0
	}
	return iv.hi - iv.lo
}

// clip intersects iv with [lo, hi).
func (iv interval) clip(lo, hi int64) interval {
	if iv.lo < lo {
		iv.lo = lo
	}
	if iv.hi > hi {
		iv.hi = hi
	}
	if iv.hi < iv.lo {
		iv.hi = iv.lo
	}
	return iv
}

// coverage returns how much of [lo, hi) the union of ivs covers.
func coverage(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if c := iv.clip(lo, hi); c.len() > 0 {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	cur := interval{lo: -1, hi: -1}
	for _, iv := range clipped {
		if iv.lo > cur.hi {
			total += cur.len()
			cur = iv
			continue
		}
		if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.len()
}

// selfTimes is the attribution of traced requests' time, in nanoseconds
// summed over requests. ClientNet + ServerSelf + Device equals Root.
type selfTimes struct {
	Requests   int
	Root       int64 // total root-span time
	ClientNet  int64 // root time outside the server span and device calls
	ServerSelf int64 // server span time not covered by device calls
	Device     int64 // time covered by device calls inside requests
	Background int64 // device call time outside every request
	// Per-request root durations, for the traced run's median latency.
	RootDurs []time.Duration
}

// attribute splits each root span's time into client/network, server
// self time and device time. The server span of a request is the
// explicit server span inside it when there is one (HTTP), else the
// interval from the first net.in to the last net.out event inside it (a
// v2 connection). A device span belongs to every request whose root
// interval it overlaps, clipped to it; a device span overlapping no root
// is background. Roots must not overlap one another (serial ops).
func attribute(spans []span) selfTimes {
	var roots, servers, devices []interval
	var ins, outs []int64
	for _, s := range spans {
		iv := interval{s.Start, s.End}
		switch {
		case s.Kind == spanRoot:
			roots = append(roots, iv)
		case s.Kind == spanServer:
			servers = append(servers, iv)
		case s.Kind == spanNetIn:
			ins = append(ins, s.Start)
		case s.Kind == spanNetOut:
			outs = append(outs, s.Start)
		case strings.HasPrefix(s.Kind, spanDevPrefix):
			devices = append(devices, iv)
		}
	}
	byLo := func(ivs []interval) {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	}
	byLo(roots)
	byLo(servers)
	sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
	sort.Slice(outs, func(i, j int) bool { return outs[i] < outs[j] })

	// Hand each device span to the roots it overlaps.
	perRoot := make([][]interval, len(roots))
	var st selfTimes
	for _, d := range devices {
		i := sort.Search(len(roots), func(i int) bool { return roots[i].hi > d.lo })
		owned := false
		for ; i < len(roots) && roots[i].lo < d.hi; i++ {
			perRoot[i] = append(perRoot[i], d.clip(roots[i].lo, roots[i].hi))
			owned = true
		}
		if !owned {
			st.Background += d.len()
		}
	}
	for i, r := range roots {
		st.Requests++
		st.Root += r.len()
		st.RootDurs = append(st.RootDurs, time.Duration(r.len()))

		srv := serverSpan(r, servers, ins, outs)
		dev := coverage(perRoot[i], r.lo, r.hi)
		devInSrv := coverage(perRoot[i], srv.lo, srv.hi)
		st.Device += dev
		st.ServerSelf += srv.len() - devInSrv
		st.ClientNet += r.len() - srv.len() - (dev - devInSrv)
	}
	return st
}

// serverSpan finds the server-side interval of request r, clipped to r.
// An empty interval means the server never saw the request. servers, ins
// and outs must be sorted.
func serverSpan(r interval, servers []interval, ins, outs []int64) interval {
	i := sort.Search(len(servers), func(i int) bool { return servers[i].hi > r.lo })
	if i < len(servers) && servers[i].lo < r.hi {
		return servers[i].clip(r.lo, r.hi)
	}
	a := sort.Search(len(ins), func(i int) bool { return ins[i] >= r.lo })
	b := sort.Search(len(outs), func(i int) bool { return outs[i] > r.hi })
	if a == len(ins) || ins[a] > r.hi || b == 0 || outs[b-1] < ins[a] {
		return interval{r.lo, r.lo}
	}
	return interval{ins[a], outs[b-1]}
}
