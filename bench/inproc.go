package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"redpatch"
	"redpatch/internal/trace"
)

// The in-process replay runs one round of a workload's generated stream
// straight through the redpatch facade, timing what redpatchd does for
// each request in three parts: decoding the body, the facade call, and
// encoding the answer. Requests alternate between tracer on and tracer
// off. "On" requests run under a bench.request root span and give the
// per-layer spans; "off" requests give the untraced call times. A
// separate sequential, untraced pass over the same requests on a fresh
// state counts allocations.

// keptSpanRequests is how many traced requests per workload keep their
// spans for the span file.
const keptSpanRequests = 200

// allocOps caps the sequential allocation-counting pass.
const allocOps = 2000

// newStudy builds the default scenario's case study fresh and warms it
// like the workload's daemon: the restored set for evaluate_warm and
// mixed (the daemon restores it; here it is swept), the warm-up stream
// for evaluate_cold.
func newStudy(ctx context.Context, p *plan) (*redpatch.CaseStudy, error) {
	study, err := redpatch.NewCaseStudyWithConfig(redpatch.Config{})
	if err != nil {
		return nil, err
	}
	switch p.workload {
	case wEvaluateWarm, wMixed:
		if _, err := study.SweepSpecEach(ctx, prepSweep(), func(redpatch.DesignReport) error { return nil }); err != nil {
			return nil, fmt.Errorf("warming the replay state: %w", err)
		}
	case wEvaluateCold:
		for _, req := range p.warmup {
			if _, err := study.EvaluateSpecCtx(ctx, req.design.spec()); err != nil {
				return nil, fmt.Errorf("replaying the warm-up: %w", err)
			}
		}
	}
	return study, nil
}

// opTimes is one replayed request's three parts.
type opTimes struct {
	decode, call, encode time.Duration
}

// studyFor returns the case study a request runs against. A sweep_cold
// sweep gets a fresh one under its scenario's cadence, built before any
// timing starts, as registering the scenario does on the daemon.
func studyFor(base *redpatch.CaseStudy, req request) (*redpatch.CaseStudy, error) {
	if req.kind == kindSweep {
		return redpatch.NewCaseStudyWithConfig(redpatch.Config{PatchIntervalHours: req.interval})
	}
	return base, nil
}

// replayOp decodes, calls and encodes one request against study. A
// non-nil tracer makes the call traced.
func replayOp(ctx context.Context, study *redpatch.CaseStudy, req request, tracer *trace.Tracer) (opTimes, *trace.Span, error) {
	var t opTimes
	callCtx := ctx
	var root *trace.Span
	// start begins the timed call; a traced call's root span start and
	// end are part of its time, as tracing's own cost.
	start := func() time.Time {
		t := time.Now()
		if tracer != nil {
			callCtx, root = trace.Start(trace.WithTracer(ctx, tracer), "bench.request")
		}
		return t
	}
	var enc bytes.Buffer
	switch req.kind {
	case kindEvaluate:
		t0 := time.Now()
		var b evaluateBody
		if err := decodeStrict(req.body, &b); err != nil {
			return t, nil, err
		}
		t.decode = time.Since(t0)
		t1 := start()
		rep, err := study.EvaluateSpecCtx(callCtx, b.Spec)
		root.EndErr(err)
		t.call = time.Since(t1)
		if err != nil {
			return t, root, err
		}
		t2 := time.Now()
		e := json.NewEncoder(&enc)
		e.SetIndent("", "  ")
		err = e.Encode(map[string]any{"scenario": "default", "report": rep})
		t.encode = time.Since(t2)
		return t, root, err
	case kindSweep:
		t0 := time.Now()
		var b sweepBody
		if err := decodeStrict(req.body, &b); err != nil {
			return t, nil, err
		}
		t.decode = time.Since(t0)
		var reps []redpatch.DesignReport
		t1 := start()
		total, err := study.SweepSpecEachProgress(callCtx, b.SpecSweepRequest, func(r redpatch.DesignReport) error {
			reps = append(reps, r)
			return nil
		}, nil)
		root.EndErr(err)
		t.call = time.Since(t1)
		if err != nil {
			return t, root, err
		}
		t2 := time.Now()
		e := json.NewEncoder(&enc)
		for _, r := range reps {
			if err := e.Encode(r); err != nil {
				return t, root, err
			}
		}
		err = e.Encode(map[string]any{"done": true, "scenario": b.Scenario, "total": total,
			"kept": len(reps), "pareto": redpatch.Pareto(reps)})
		t.encode = time.Since(t2)
		return t, root, err
	case kindRollout:
		t0 := time.Now()
		var b rolloutBody
		if err := decodeStrict(req.body, &b); err != nil {
			return t, nil, err
		}
		t.decode = time.Since(t0)
		var reps []redpatch.RolloutReport
		t1 := start()
		total, err := study.RolloutSweepEach(callCtx, b.Spec, b.Schedule, func(r redpatch.RolloutReport) error {
			reps = append(reps, r)
			return nil
		}, nil)
		root.EndErr(err)
		t.call = time.Since(t1)
		if err != nil {
			return t, root, err
		}
		t2 := time.Now()
		e := json.NewEncoder(&enc)
		for _, r := range reps {
			if err := e.Encode(r); err != nil {
				return t, root, err
			}
		}
		err = e.Encode(map[string]any{"done": true, "scenario": "default", "total": total,
			"frontier": redpatch.RolloutPareto(reps)})
		t.encode = time.Since(t2)
		return t, root, err
	}
	return t, nil, fmt.Errorf("request kind %d is not replayed", req.kind)
}

// replayable drops scenario registrations and deletions: in-process,
// a fresh case study per sweep stands in for them.
func replayable(reqs []request) []request {
	out := make([]request, 0, len(reqs))
	for _, r := range reqs {
		if r.kind != kindScenarioCreate && r.kind != kindScenarioDelete {
			out = append(out, r)
		}
	}
	return out
}

// decodeStrict decodes one JSON body the way redpatchd does: unknown
// fields and trailing data are errors.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding a request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("decoding a request body: trailing data")
	}
	return nil
}

// spanCollector is the bench tracer's OnEnd hook: it files every ended
// span under its trace until the request that owns the trace takes them.
type spanCollector struct {
	mu      sync.Mutex
	byTrace map[string][]trace.SpanData
}

func (c *spanCollector) add(d trace.SpanData) {
	c.mu.Lock()
	c.byTrace[d.TraceID] = append(c.byTrace[d.TraceID], d)
	c.mu.Unlock()
}

func (c *spanCollector) take(traceID string) []trace.SpanData {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.byTrace[traceID]
	delete(c.byTrace, traceID)
	return s
}

// selfTimes returns each span's self time: its duration minus the union
// of its children's intervals, clipped to its own. Children may overlap
// (sweep workers run in parallel), which the union accounts for.
func selfTimes(spans []trace.SpanData) []time.Duration {
	children := make(map[string][]int, len(spans))
	for i, s := range spans {
		if s.ParentID != "" {
			children[s.ParentID] = append(children[s.ParentID], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		lo, hi := s.Start, s.Start.Add(s.Duration)
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, c := range children[s.SpanID] {
			a, b := spans[c].Start, spans[c].Start.Add(spans[c].Duration)
			if a.Before(lo) {
				a = lo
			}
			if b.After(hi) {
				b = hi
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var cur iv
		for j, v := range ivs {
			switch {
			case j == 0:
				cur = v
			case v.a.After(cur.b):
				covered += cur.b.Sub(cur.a)
				cur = v
			case v.b.After(cur.b):
				cur.b = v.b
			}
		}
		if len(ivs) > 0 {
			covered += cur.b.Sub(cur.a)
		}
		out[i] = s.Duration - covered
	}
	return out
}

// layerAgg accumulates the traced requests' spans.
type layerAgg struct {
	ops           int
	spans         int
	count         map[string]int
	self          map[string]time.Duration
	selfSum       time.Duration // every program span, bench root excluded
	evalCache     [2]int        // engine.evaluate: [hit or inflight, all]
	securityMemo  [2]int        // engine.evaluate security_memo: [hit, all]
	tierMemo      [2]int        // availability.solve: [tier memo hits, tiers]
	queueWaitsUs  []float64
	keptSpans     []trace.SpanData
	keptRequests  int
	keepSpanFiles bool
}

func newLayerAgg(keep bool) *layerAgg {
	return &layerAgg{count: map[string]int{}, self: map[string]time.Duration{}, keepSpanFiles: keep}
}

func intAttr(d trace.SpanData, key string) (int64, bool) {
	v, ok := d.Attr(key)
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case int:
		return int64(n), true
	case int64:
		return n, true
	}
	return 0, false
}

func (a *layerAgg) add(spans []trace.SpanData) {
	a.ops++
	if a.keepSpanFiles && a.keptRequests < keptSpanRequests {
		a.keptSpans = append(a.keptSpans, spans...)
		a.keptRequests++
	}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.Name == "bench.request" {
			continue
		}
		a.spans++
		a.count[s.Name]++
		a.self[s.Name] += self[i]
		a.selfSum += self[i]
		switch s.Name {
		case "engine.evaluate":
			a.evalCache[1]++
			if v, _ := s.Attr("cache"); v == "hit" || v == "inflight" {
				a.evalCache[0]++
			}
			if v, ok := s.Attr("security_memo"); ok {
				a.securityMemo[1]++
				if v == "hit" {
					a.securityMemo[0]++
				}
			}
			if ns, ok := intAttr(s, "queue_wait_ns"); ok {
				a.queueWaitsUs = append(a.queueWaitsUs, float64(ns)/1e3)
			}
		case "availability.solve":
			hits, _ := intAttr(s, "tier_memo_hits")
			solves, _ := intAttr(s, "tier_solves")
			a.tierMemo[0] += int(hits)
			a.tierMemo[1] += int(hits + solves)
		}
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(pair [2]int) float64 {
	if pair[1] == 0 {
		return 0
	}
	return float64(pair[0]) / float64(pair[1])
}

// selfMean is a span name's mean self time in µs and its span count.
func (a *layerAgg) selfMean(names ...string) metric {
	var sum time.Duration
	n := 0
	for _, name := range names {
		sum += a.self[name]
		n += a.count[name]
	}
	if n == 0 {
		return metric{Unit: "us"}
	}
	return metric{Value: us(sum) / float64(n), Unit: "us", N: n}
}

func (a *layerAgg) perOp(name string) metric {
	return metric{Value: float64(a.count[name]) / float64(max(a.ops, 1)), Unit: "count/op", N: a.ops}
}

// replayResult is what the traced replay and the allocation pass give.
type replayResult struct {
	agg                 *layerAgg
	decode, encode      []float64 // µs, every request
	callOn, callOff     []float64 // µs
	allocsPerOp, bPerOp float64
	allocOpsCounted     int
}

// replay runs round 0 of the plan in-process with the workload's client
// concurrency, then the allocation pass. fgCount is how many foreground
// requests the mixed workload's daemon answered per round, which the
// replay matches so both see the same contention.
func replay(ctx context.Context, p *plan, fgCount int, keepSpans bool) (*replayResult, error) {
	col := &spanCollector{byTrace: map[string][]trace.SpanData{}}
	tracer := trace.New(trace.Options{Capacity: 1, MaxSpans: 1, OnEnd: col.add})
	base, err := newStudy(ctx, p)
	if err != nil {
		return nil, err
	}
	rr := &replayResult{agg: newLayerAgg(keepSpans)}
	var mu sync.Mutex
	var firstErr error
	reqs := replayable(p.rounds[0])
	var next atomic.Int64
	op := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(reqs) {
				return
			}
			var tr *trace.Tracer
			if i%2 == 0 {
				tr = tracer
			}
			study, err := studyFor(base, reqs[i])
			var t opTimes
			var root *trace.Span
			if err == nil {
				t, root, err = replayOp(ctx, study, reqs[i], tr)
			}
			var spans []trace.SpanData
			if root != nil {
				spans = col.take(root.TraceID())
			}
			mu.Lock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			rr.decode = append(rr.decode, us(t.decode))
			rr.encode = append(rr.encode, us(t.encode))
			if tr != nil {
				rr.callOn = append(rr.callOn, us(t.call))
				rr.agg.add(spans)
			} else {
				rr.callOff = append(rr.callOff, us(t.call))
			}
			mu.Unlock()
		}
	}
	clients := 1
	if p.workload == wEvaluateWarm || p.workload == wEvaluateCold {
		clients = 2
	}
	var wg sync.WaitGroup
	var bgDone atomic.Bool
	if p.workload == wMixed {
		// The foreground stream runs untraced beside the measured
		// background requests, as the daemon's foreground client does.
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := p.foreground(0)
			for i := 0; i < fgCount && !bgDone.Load() && ctx.Err() == nil; i++ {
				if _, _, err := replayOp(ctx, base, next(), nil); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	var ow sync.WaitGroup
	for c := 0; c < clients; c++ {
		ow.Add(1)
		go func() { defer ow.Done(); op() }()
	}
	ow.Wait()
	bgDone.Store(true)
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("in-process replay of %s: %w", p.workload, firstErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := allocPass(ctx, p, rr); err != nil {
		return nil, err
	}
	return rr, nil
}

// allocPass replays the round's first requests sequentially and
// untraced on a fresh state, counting heap allocations per request.
func allocPass(ctx context.Context, p *plan, rr *replayResult) error {
	base, err := newStudy(ctx, p)
	if err != nil {
		return err
	}
	reqs := replayable(p.rounds[0])
	if len(reqs) > allocOps {
		reqs = reqs[:allocOps]
	}
	var m0, m1 runtime.MemStats
	var allocs, bytes uint64
	for _, req := range reqs {
		study, err := studyFor(base, req)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m0)
		if _, _, err := replayOp(ctx, study, req, nil); err != nil {
			return fmt.Errorf("allocation pass: %w", err)
		}
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		bytes += m1.TotalAlloc - m0.TotalAlloc
		rr.allocOpsCounted++
	}
	if rr.allocOpsCounted > 0 {
		rr.allocsPerOp = float64(allocs) / float64(rr.allocOpsCounted)
		rr.bPerOp = float64(bytes) / float64(rr.allocOpsCounted)
	}
	return nil
}

// writeSpans writes the kept spans as NDJSON.
func (a *layerAgg) writeSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range a.keptSpans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
