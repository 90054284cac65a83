package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload for one round at small counts against a
// freshly built daemon, traced replay included, and checks that every
// metric BENCHMARK.json names is reported and no request failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots redpatchd")
	}
	out := t.TempDir()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	res, err := runBenchmark(context.Background(), root, config{
		workloads: workloadNames, seed: 1, seconds: 1, rounds: 1, replay: true, out: out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.write(out); err != nil {
		t.Fatal(err)
	}
	bm, err := loadBenchmarkJSON(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		wr := res.Workloads[w]
		if wr == nil {
			t.Fatalf("%s: no result", w)
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: %d of %d requests failed: %s", w, wr.Failed, wr.Attempted, wr.FirstError)
		}
		if wr.Sampled == 0 {
			t.Errorf("%s: no answer was compared with the facade", w)
		}
		for _, s := range bm.EndToEnd {
			if m, ok := wr.EndToEnd[s.Name]; !ok || m.Unit != s.Unit || m.Value <= 0 {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", w, s.Name, m, s.Unit)
			}
		}
		for _, s := range bm.PerLayer {
			if m, ok := wr.PerLayer[s.Name]; !ok || m.Unit != s.Unit {
				t.Errorf("%s: per-layer %s = %+v, want unit %s", w, s.Name, m, s.Unit)
			}
		}
		pl := wr.PerLayer
		if got := pl["harm.expanded_per_op"].Value; got != 0 {
			t.Errorf("%s: %v expanded HARM evaluations per request; the quotient fast path must serve all", w, got)
		}
		if pl["trace.spans_per_op"].Value < 1 {
			t.Errorf("%s: traced requests recorded no program spans", w)
		}
		// The breakdown is additive by construction; guard the arithmetic.
		socket := pl["redpatchd.server_us_mean"].Value + pl["redpatchd.decode_us_mean"].Value +
			pl["redpatch.call_us_mean"].Value + pl["redpatchd.encode_us_mean"].Value
		if socket <= 0 || math.IsNaN(socket) {
			t.Errorf("%s: breakdown sums to %v µs", w, socket)
		}
		if _, err := os.Stat(filepath.Join(out, "spans-"+w+".ndjson")); err != nil {
			t.Errorf("%s: span file: %v", w, err)
		}
	}
	// Every cold sweep streams the paper's base design.
	if res.Workloads[wSweepCold].PaperChecks == 0 {
		t.Error("sweep_cold held no answer to the paper")
	}
	if _, err := os.Stat(filepath.Join(out, "result.json")); err != nil {
		t.Error(err)
	}
}
