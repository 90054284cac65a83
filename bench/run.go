package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// roundStats is what one round of one workload measured.
type roundStats struct {
	wall       time.Duration
	primaryLat []float64 // ms: evaluates, sweep streams, or mixed's foreground
	firstLine  []float64 // ms: the result-producing requests
	primary    int       // completed primary requests
	results    int       // results the result-producing requests delivered
	delivered  int       // every report or point delivered, any request
	opLatency  float64   // ms summed over the result-producing requests
	ops        int
	attempted  int
	failed     int
	firstErr   error
	samples    []sample
	loadgenCPU time.Duration
	daemonCPU  time.Duration
}

func (s *roundStats) merge(o roundStats) {
	s.primaryLat = append(s.primaryLat, o.primaryLat...)
	s.firstLine = append(s.firstLine, o.firstLine...)
	s.primary += o.primary
	s.results += o.results
	s.delivered += o.delivered
	s.opLatency += o.opLatency
	s.ops += o.ops
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
	s.samples = append(s.samples, o.samples...)
}

// record counts one checked response. primary and producing say which
// of the workload's metrics the request feeds; results is how many
// reports or points it delivered.
func (s *roundStats) record(res result, err error, kept []sample, primary, producing bool, results int) {
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return
	}
	s.samples = append(s.samples, kept...)
	ms := float64(res.latency) / float64(time.Millisecond)
	if primary {
		s.primary++
		s.primaryLat = append(s.primaryLat, ms)
	}
	if producing {
		s.results += results
		s.firstLine = append(s.firstLine, float64(res.firstLine)/float64(time.Millisecond))
		s.opLatency += ms
		s.ops++
	}
	s.delivered += results
}

// workloadRun drives one workload's daemon through its plan.
type workloadRun struct {
	plan  *plan
	d     *daemon
	conns [2]*conn // one per closed-loop client, kept alive across rounds
	ck    checker
	boots *booter
	// bootTimes are exec-to-ready times: the measured daemon's, then one
	// throwaway boot before each round, so a burst on the machine moves
	// few of them.
	bootTimes []float64
	stats     []roundStats
	warmup    roundStats
	result    *workloadResult
}

// startWorkload boots the workload's measured daemon.
func startWorkload(p *plan, b *booter) (*workloadRun, error) {
	d, _, took, err := b.boot()
	if err != nil {
		return nil, err
	}
	idx := 0
	for i, n := range workloadNames {
		if n == p.workload {
			idx = i
		}
	}
	return &workloadRun{plan: p, d: d, conns: [2]*conn{newConn(d.base), newConn(d.base)},
		ck: checker{seed: p.seed, workload: idx, paper: new(atomic.Int64)}, boots: b, bootTimes: []float64{took.Seconds()}}, nil
}

// stop closes the connections and SIGKILLs the daemon; repeating it is
// harmless.
func (w *workloadRun) stop() {
	for _, c := range w.conns {
		c.close()
	}
	w.d.kill()
}

// runWarmup sends the plan's unmeasured warm-up requests.
func (w *workloadRun) runWarmup(ctx context.Context) {
	if len(w.plan.warmup) > 0 {
		w.warmup = w.shared(ctx, w.plan.warmup, -1)
	}
}

// runRound times one throwaway boot, then runs round r and records its
// stats, with the daemon's and this process's CPU time over the round.
func (w *workloadRun) runRound(ctx context.Context, r int) error {
	took, err := w.boots.timeBoot()
	if err != nil {
		return fmt.Errorf("timing a boot: %w", err)
	}
	w.bootTimes = append(w.bootTimes, took.Seconds())
	cpu0, err := w.d.cpu()
	if err != nil {
		return fmt.Errorf("reading daemon CPU: %w", err)
	}
	self0 := selfCPU()
	var st roundStats
	switch w.plan.workload {
	case wEvaluateWarm, wEvaluateCold:
		st = w.shared(ctx, w.plan.rounds[r], r)
	case wSweepCold:
		st = w.sequential(ctx, w.plan.rounds[r], r)
	case wMixed:
		st = w.mixed(ctx, r)
	}
	st.loadgenCPU = selfCPU() - self0
	cpu1, err := w.d.cpu()
	if err != nil {
		return fmt.Errorf("reading daemon CPU: %w", err)
	}
	st.daemonCPU = cpu1 - cpu0
	w.stats = append(w.stats, st)
	return ctx.Err()
}

// shared runs reqs on both closed-loop clients, which take the next
// request from one shared counter, so the round's work is fixed.
func (w *workloadRun) shared(ctx context.Context, reqs []request, r int) roundStats {
	var next atomic.Int64
	parts := make([]roundStats, len(w.conns))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range parts {
		wg.Add(1)
		go func(st *roundStats, cn *conn) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				res := cn.send(ctx, reqs[i])
				kept, err := w.ck.check(reqs[i], res, r, i)
				st.record(res, err, kept, true, true, 1)
			}
		}(&parts[c], w.conns[c])
	}
	wg.Wait()
	var st roundStats
	st.wall = time.Since(start)
	for _, p := range parts {
		st.merge(p)
	}
	return st
}

// sequential runs sweep_cold's register, stream, delete cycles on one
// client.
func (w *workloadRun) sequential(ctx context.Context, reqs []request, r int) roundStats {
	var st roundStats
	start := time.Now()
	for i, req := range reqs {
		if ctx.Err() != nil {
			break
		}
		res := w.conns[0].send(ctx, req)
		kept, err := w.ck.check(req, res, r, i)
		sweep := req.kind == kindSweep
		n := 0
		if sweep {
			n = coldSweepDesigns
		}
		st.record(res, err, kept, sweep, sweep, n)
	}
	st.wall = time.Since(start)
	return st
}

// mixed runs the background rollout client over the round's plan while
// the foreground client loops warm evaluates until the background
// finishes.
func (w *workloadRun) mixed(ctx context.Context, r int) roundStats {
	var bg, fg roundStats
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := w.plan.foreground(r)
		for i := 0; !done.Load() && ctx.Err() == nil; i++ {
			req := next()
			res := w.conns[1].send(ctx, req)
			kept, err := w.ck.check(req, res, r, -1, i)
			fg.record(res, err, kept, true, false, 1)
		}
	}()
	start := time.Now()
	for i, req := range w.plan.rounds[r] {
		if ctx.Err() != nil {
			break
		}
		res := w.conns[0].send(ctx, req)
		kept, err := w.ck.check(req, res, r, i)
		bg.record(res, err, kept, false, true, req.points)
	}
	bg.wall = time.Since(start)
	done.Store(true)
	wg.Wait()
	bg.merge(fg)
	return bg
}

// metric is one reported value with its unit and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// tailPercentile reports latency percentile q as the median of the
// per-round values when every round has at least ten samples beyond it,
// and over the pooled samples of all rounds otherwise.
func tailPercentile(rounds []roundStats, q float64) metric {
	need := int(math.Round(10 / (1 - q)))
	perRound := true
	var pooled, vals []float64
	for _, st := range rounds {
		pooled = append(pooled, st.primaryLat...)
		if len(st.primaryLat) < need {
			perRound = false
		}
		vals = append(vals, percentile(st.primaryLat, q))
	}
	if perRound {
		return metric{Value: median(vals), Unit: "ms", N: len(pooled)}
	}
	return metric{Value: percentile(pooled, q), Unit: "ms", N: len(pooled)}
}

// perRound lists the per-round values the round-based metrics are the
// medians of, so a result file shows the noise inside a run.
func (w *workloadRun) perRound() map[string][]float64 {
	out := map[string][]float64{}
	for _, st := range w.stats {
		secs := st.wall.Seconds()
		out["throughput_rps"] = append(out["throughput_rps"], float64(st.primary)/secs)
		out["results_per_s"] = append(out["results_per_s"], float64(st.results)/secs)
		for _, q := range []struct {
			name string
			q    float64
		}{{"latency_p50_ms", 0.5}, {"latency_p90_ms", 0.9}, {"latency_p99_ms", 0.99}} {
			out[q.name] = append(out[q.name], percentile(st.primaryLat, q.q))
		}
	}
	return out
}

// endToEnd computes the end-to-end metrics: throughput and the median
// latency as the median of their per-round values, the tails as
// tailPercentile gives them.
func (w *workloadRun) endToEnd(rssMB float64) map[string]metric {
	tot := w.totals()
	pr := w.perRound()
	return map[string]metric{
		"setup_s":        {Value: median(w.bootTimes), Unit: "s", N: len(w.bootTimes)},
		"throughput_rps": {Value: median(pr["throughput_rps"]), Unit: "requests/s", N: tot.primary},
		"results_per_s":  {Value: median(pr["results_per_s"]), Unit: "results/s", N: tot.results},
		"latency_p50_ms": {Value: median(pr["latency_p50_ms"]), Unit: "ms", N: tot.primary},
		"latency_p90_ms": tailPercentile(w.stats, 0.90),
		"latency_p99_ms": tailPercentile(w.stats, 0.99),
		"rss_peak_mb":    {Value: rssMB, Unit: "MB", N: 1},
	}
}

// totals sums the counts over every round.
func (w *workloadRun) totals() roundStats {
	var t roundStats
	for _, st := range w.stats {
		t.merge(st)
		t.loadgenCPU += st.loadgenCPU
		t.daemonCPU += st.daemonCPU
	}
	return t
}

// foregroundPerRound is the median number of primary requests a round
// completed: for mixed, how many foreground evaluates ran beside the
// background client.
func (w *workloadRun) foregroundPerRound() int {
	var n []float64
	for _, st := range w.stats {
		n = append(n, float64(st.primary))
	}
	return int(median(n))
}

// perLayer assembles the per-layer metrics from the socket rounds and
// the in-process replay. The replay's requests are the workload's
// result-producing ones, the same set the socket means are taken over,
// so decode + call + encode + redpatchd.server adds up to the socket
// mean, and the span self times plus redpatch.unattributed add up to
// the call mean.
func (w *workloadRun) perLayer(rr *replayResult, snapshotMB float64) map[string]metric {
	tot := w.totals()
	a := rr.agg
	socketUs := tot.opLatency / float64(max(tot.ops, 1)) * 1e3
	decode, call, encode := mean(rr.decode), mean(rr.callOff), mean(rr.encode)
	traced := float64(max(a.ops, 1))
	overhead := 0.0
	if call > 0 {
		overhead = (mean(rr.callOn) - call) / call * 100
	}
	return map[string]metric{
		"redpatchd.server_us_mean":           {Value: socketUs - decode - call - encode, Unit: "us", N: tot.ops},
		"redpatchd.decode_us_mean":           {Value: decode, Unit: "us", N: len(rr.decode)},
		"redpatchd.encode_us_mean":           {Value: encode, Unit: "us", N: len(rr.encode)},
		"redpatchd.first_line_ms_p50":        {Value: percentile(tot.firstLine, 0.5), Unit: "ms", N: len(tot.firstLine)},
		"redpatchd.cpu_us_per_result":        {Value: us(tot.daemonCPU) / float64(max(tot.delivered, 1)), Unit: "us/result", N: tot.delivered},
		"redpatchd.snapshot_mb":              {Value: snapshotMB, Unit: "MB", N: 1},
		"redpatch.call_us_mean":              {Value: call, Unit: "us", N: len(rr.callOff)},
		"redpatch.call_us_p99":               {Value: percentile(rr.callOff, 0.99), Unit: "us", N: len(rr.callOff)},
		"redpatch.unattributed_us_mean":      {Value: call - us(a.selfSum)/traced, Unit: "us", N: a.ops},
		"engine.evaluate_self_us_mean":       a.selfMean("engine.evaluate"),
		"engine.evaluates_per_op":            a.perOp("engine.evaluate"),
		"engine.memo_hit_ratio":              {Value: ratio(a.evalCache), Unit: "ratio", N: a.evalCache[1]},
		"engine.queue_wait_us_p50":           {Value: percentile(a.queueWaitsUs, 0.5), Unit: "us", N: len(a.queueWaitsUs)},
		"engine.sweep_self_us_mean":          a.selfMean("engine.sweep", "rollout.sweep"),
		"redundancy.availability_us_mean":    a.selfMean("availability.solve"),
		"redundancy.tier_memo_hit_ratio":     {Value: ratio(a.tierMemo), Unit: "ratio", N: a.tierMemo[1]},
		"availability.tierfactor_per_op":     a.perOp("availability.tierfactor"),
		"availability.tierfactor_us_mean":    a.selfMean("availability.tierfactor"),
		"redundancy.security_us_mean":        a.selfMean("security.evaluate"),
		"redundancy.security_memo_hit_ratio": {Value: ratio(a.securityMemo), Unit: "ratio", N: a.securityMemo[1]},
		"harm.expanded_per_op":               a.perOp("harm.expanded.evaluate"),
		"trace.spans_per_op":                 {Value: float64(a.spans) / traced, Unit: "count/op", N: a.ops},
		"trace.overhead_pct":                 {Value: overhead, Unit: "%", N: len(rr.callOn) + len(rr.callOff)},
		"inproc.allocs_per_op":               {Value: rr.allocsPerOp, Unit: "allocs/op", N: rr.allocOpsCounted},
		"inproc.bytes_per_op":                {Value: rr.bPerOp, Unit: "B/op", N: rr.allocOpsCounted},
		"loadgen.cpu_us_per_request":         {Value: us(tot.loadgenCPU) / float64(max(tot.attempted, 1)), Unit: "us/request", N: tot.attempted},
	}
}
