package main

import (
	"math"
	"testing"
	"time"

	"redpatch/internal/trace"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {1, 10}, {0.01, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
		{nil, 0},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4), the
// computation the benchmark's acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
		{[]float64{5, 1}, 0, 6},
		{[]float64{0.3, 0.1, 0.9, 0.5, 0.7, 0.2, 1.1}, 0.2, 0.9},
		{[]float64{2}, 2, 2},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v", got)
	}
}

// TestSelfTimeOverlappingChildren: a parent's self time is its duration
// minus the union of its children's intervals, clipped to the parent,
// so parallel (overlapping) children are not subtracted twice.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	t0 := time.Now()
	span := func(id, parent string, from, to int) trace.SpanData {
		return trace.SpanData{SpanID: id, ParentID: parent, Name: id,
			Start: t0.Add(time.Duration(from) * time.Millisecond), Duration: time.Duration(to-from) * time.Millisecond}
	}
	spans := []trace.SpanData{
		span("root", "", 0, 100),
		span("a", "root", 10, 50),
		span("b", "root", 30, 70),  // overlaps a
		span("c", "root", 90, 120), // runs past the parent's end
		span("g", "a", 20, 30),     // a grandchild counts against a only
	}
	want := map[string]time.Duration{
		"root": 30 * time.Millisecond, // 100 - |[10,70] ∪ [90,100]|
		"a":    30 * time.Millisecond,
		"b":    40 * time.Millisecond,
		"c":    30 * time.Millisecond,
		"g":    10 * time.Millisecond,
	}
	for i, self := range selfTimes(spans) {
		if self != want[spans[i].SpanID] {
			t.Errorf("self(%s) = %v, want %v", spans[i].SpanID, self, want[spans[i].SpanID])
		}
	}
}

func TestLayerAggAddsUp(t *testing.T) {
	t0 := time.Now()
	spans := []trace.SpanData{
		{SpanID: "r", Name: "bench.request", Start: t0, Duration: 100 * time.Microsecond},
		{SpanID: "s", ParentID: "r", Name: "engine.sweep", Start: t0.Add(5 * time.Microsecond), Duration: 90 * time.Microsecond},
		{SpanID: "e1", ParentID: "s", Name: "engine.evaluate", Start: t0.Add(10 * time.Microsecond), Duration: 40 * time.Microsecond,
			Attrs: []trace.Attr{{Key: "cache", Value: "miss"}, {Key: "queue_wait_ns", Value: int64(1000)}, {Key: "security_memo", Value: "hit"}}},
		{SpanID: "e2", ParentID: "s", Name: "engine.evaluate", Start: t0.Add(20 * time.Microsecond), Duration: 40 * time.Microsecond,
			Attrs: []trace.Attr{{Key: "cache", Value: "hit"}, {Key: "queue_wait_ns", Value: int64(3000)}}},
	}
	a := newLayerAgg(false)
	a.add(spans)
	if a.ops != 1 || a.spans != 3 {
		t.Fatalf("ops %d spans %d, want 1 and 3 (the bench root is not a program span)", a.ops, a.spans)
	}
	// engine.sweep covers [5,95] with children [10,60] ∪ [20,60] = 50µs.
	if got := a.self["engine.sweep"]; got != 40*time.Microsecond {
		t.Errorf("engine.sweep self = %v, want 40µs", got)
	}
	if got := a.selfSum; got != 120*time.Microsecond {
		t.Errorf("self sum = %v, want 120µs", got)
	}
	if ratio(a.evalCache) != 0.5 || ratio(a.securityMemo) != 1 {
		t.Errorf("hit ratios %v %v", ratio(a.evalCache), ratio(a.securityMemo))
	}
	if got := percentile(a.queueWaitsUs, 0.5); got != 1 {
		t.Errorf("queue wait p50 = %vµs, want 1", got)
	}
}
