package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNeedsTenBeyond(t *testing.T) {
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	p99 := percentile(sorted, 0.99)
	if p99.Value != 990 || p99.N != 1000 || p99.Beyond != 10 || !p99.OK() {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990 with 10 of 1000 beyond", p99)
	}
	short := percentile(sorted[:999], 0.99)
	if short.Beyond != 9 || short.OK() {
		t.Fatalf("p99 of 999 samples = %+v, want 9 beyond and not OK", short)
	}
	if p50 := percentile(sorted[:10], 0.5); p50.Value != 5 || p50.Beyond != 5 {
		t.Fatalf("p50 of 1..10 = %+v, want 5 with 5 beyond", p50)
	}
	if empty := percentile(nil, 0.99); empty.N != 0 || empty.OK() {
		t.Fatalf("empty sample = %+v", empty)
	}
}

func TestHighestTailFallsBack(t *testing.T) {
	sorted := make([]float64, 250)
	for i := range sorted {
		sorted[i] = float64(i)
	}
	got := highestTail(sorted, 0.99, 0.98, 0.95, 0.90)
	if got.P != 0.95 || got.Beyond != 12 {
		t.Fatalf("highest tail of 250 samples = %+v, want p95 with 12 beyond", got)
	}
	none := highestTail(sorted[:20], 0.99, 0.9)
	if none.OK() || none.P != 0.9 {
		t.Fatalf("20 samples: %+v, want the last candidate, not OK", none)
	}
}

// The expected values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.1, 1.2, 5.5, 2.2}, 1.45, 2.65, 4.9},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3.0, 4.5},
	}
	for _, c := range cases {
		q1, q2, q3, ok := quartiles(c.data)
		if !ok || !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value should not be ok")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestDeltaRatioKeepsItsBase(t *testing.T) {
	r := deltaRatio(100, 160, "heap.fetches", 10, 40, "ops")
	if r.Value() != 2 || r.Num != 60 || r.Den != 30 || r.NumFrom != "heap.fetches" || r.DenFrom != "ops" {
		t.Fatalf("ratio = %+v value %v", r, r.Value())
	}
	if zero := deltaRatio(5, 5, "wal.group_commit_txns", 7, 7, "wal.fsyncs"); zero.Value() != 0 {
		t.Fatalf("empty base should read 0, got %v", zero.Value())
	}
	rep := newReport()
	rep.setRatio("x", r, "count")
	if rep.notes["x"] != "60 heap.fetches / 30 ops" {
		t.Fatalf("note = %q", rep.notes["x"])
	}
}

func TestOpenLoopLatencyCountsFromDue(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := schedule{start: t0, interval: 20 * time.Millisecond}
	if got := s.due(3); !got.Equal(t0.Add(60 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got.Sub(t0))
	}
	// A stall: request 3 is sent 15ms late and acked 5ms after sending.
	lat, late := openLoopSample(s.due(3), s.due(3).Add(15*time.Millisecond), s.due(3).Add(20*time.Millisecond))
	if lat != 20*time.Millisecond || late != 15*time.Millisecond {
		t.Fatalf("latency %v late %v, want 20ms and 15ms", lat, late)
	}
	// Sent early (the timer fired before the due time): never negative lateness.
	lat, late = openLoopSample(s.due(1), s.due(1).Add(-time.Millisecond), s.due(1).Add(4*time.Millisecond))
	if lat != 4*time.Millisecond || late != 0 {
		t.Fatalf("latency %v late %v, want 4ms and 0", lat, late)
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics
// the program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(listed), len(defs))
			return
		}
		for i := range defs {
			if listed[i].Name != defs[i].Name || listed[i].Unit != defs[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the program %s (%s)", kind, i, listed[i].Name, listed[i].Unit, defs[i].Name, defs[i].Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
