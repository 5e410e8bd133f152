package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tail is one percentile of a latency sample together with the evidence
// behind it: the sample count and how many samples lie beyond it.
type tail struct {
	P      float64 // the percentile, as a fraction (0.99 for p99)
	Value  float64 // in the sample's unit
	N      int     // samples
	Beyond int     // samples strictly beyond the reported rank
}

// OK reports whether enough samples lie beyond the percentile for it to
// be reported.
func (t tail) OK() bool { return t.Beyond >= minBeyond }

// percentile returns the nearest-rank p-quantile of sorted. The rank is
// ceil(p*n); every sample after it counts as beyond.
func percentile(sorted []float64, p float64) tail {
	n := len(sorted)
	if n == 0 {
		return tail{P: p}
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return tail{P: p, Value: sorted[rank-1], N: n, Beyond: n - rank}
}

// highestTail returns the highest of the candidate percentiles (given in
// descending order) that has at least minBeyond samples beyond it, or the
// last candidate, not OK, when none has.
func highestTail(sorted []float64, candidates ...float64) tail {
	var t tail
	for _, p := range candidates {
		t = percentile(sorted, p)
		if t.OK() {
			return t
		}
	}
	return t
}

// quartiles returns the three cut points dividing values into four
// groups, by the same rule as Python's statistics.quantiles(values, n=4)
// (the default "exclusive" method). It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64, ok bool) {
	n := len(values)
	if n < 2 {
		return 0, 0, 0, false
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		out[i-1] = (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], true
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for an empty slice.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	if n%2 == 1 {
		return data[n/2]
	}
	return (data[n/2-1] + data[n/2]) / 2
}

// ratio is a derived number reported together with its base: the
// numerator and denominator it was computed from, and where each came from.
type ratio struct {
	Num, Den         float64
	NumFrom, DenFrom string
}

// Value is Num/Den, or 0 when the base is empty (the event never
// happened, so there is nothing to divide).
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

// deltaRatio builds a ratio from two counter deltas (after minus before).
func deltaRatio(numBefore, numAfter int64, numFrom string, denBefore, denAfter int64, denFrom string) ratio {
	return ratio{
		Num: float64(numAfter - numBefore), NumFrom: numFrom,
		Den: float64(denAfter - denBefore), DenFrom: denFrom,
	}
}

// schedule is an open-loop arrival schedule: request i is due at
// start + i*interval whether or not earlier requests have completed.
type schedule struct {
	start    time.Time
	interval time.Duration
}

// due returns when request i should be sent.
func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// openLoopSample times one open-loop request: its latency counts from the
// due time (so a stall also delays every request queued behind it), and
// late is how far behind schedule the generator sent it.
func openLoopSample(due, sent, acked time.Time) (latency, late time.Duration) {
	late = sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return acked.Sub(due), late
}

// durationsMs converts durations to sorted milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
