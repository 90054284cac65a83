package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"redpatch"

	"redpatch/internal/faultinject"
	"redpatch/internal/trace"
)

// freshStudy builds an unshared case study, so cache miss/hit sequences
// are deterministic regardless of what other tests evaluated.
func freshStudy(t *testing.T) *redpatch.CaseStudy {
	t.Helper()
	study, err := redpatch.NewCaseStudyWithConfig(redpatch.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	return study
}

type explainBody struct {
	Explain struct {
		TraceID            string `json:"traceId"`
		Cache              string `json:"cache"`
		AvailabilitySolver string `json:"availabilitySolver"`
		SecuritySolver     string `json:"securitySolver"`
		SecurityMemo       string `json:"securityMemo"`
		Spans              []struct {
			Name       string  `json:"name"`
			DurationMs float64 `json:"durationMs"`
			Status     string  `json:"status"`
		} `json:"spans"`
	} `json:"explain"`
}

// TestExplainProvenance: ?explain=1 on v2 evaluate must name the solver
// that ran, the cache layer that answered, and the span timing
// breakdown — "miss" with factored/quotient solver spans on the first
// evaluation, "hit" with no solver spans on the repeat.
func TestExplainProvenance(t *testing.T) {
	h := mustServer(t, freshStudy(t), serverConfig{}).handler()
	body := `{"spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":1},{"role":"db","replicas":1}]}}`

	w := do(t, h, http.MethodPost, "/api/v2/evaluate?explain=1", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var first explainBody
	if err := json.Unmarshal(w.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	e := first.Explain
	if e.TraceID == "" || len(e.TraceID) != 32 {
		t.Errorf("traceId = %q, want 32 hex chars", e.TraceID)
	}
	if e.Cache != "miss" {
		t.Errorf("cache = %q, want miss on a cold engine", e.Cache)
	}
	if e.AvailabilitySolver != "factored" {
		t.Errorf("availabilitySolver = %q, want factored (PerServer models)", e.AvailabilitySolver)
	}
	if e.SecuritySolver != "quotient" {
		t.Errorf("securitySolver = %q, want quotient", e.SecuritySolver)
	}
	if e.SecurityMemo != "miss" {
		t.Errorf("securityMemo = %q, want miss on a cold evaluator", e.SecurityMemo)
	}
	names := map[string]bool{}
	for _, sp := range e.Spans {
		names[sp.Name] = true
		if sp.Status != trace.StatusOK {
			t.Errorf("span %s status = %q", sp.Name, sp.Status)
		}
		if sp.DurationMs < 0 {
			t.Errorf("span %s duration = %g ms", sp.Name, sp.DurationMs)
		}
	}
	for _, want := range []string{"engine.evaluate", "availability.solve", "security.evaluate"} {
		if !names[want] {
			t.Errorf("explain missing span %q (got %v)", want, names)
		}
	}

	w = do(t, h, http.MethodPost, "/api/v2/evaluate?explain=1", body)
	if w.Code != http.StatusOK {
		t.Fatalf("repeat status = %d: %s", w.Code, w.Body)
	}
	var second explainBody
	if err := json.Unmarshal(w.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if second.Explain.Cache != "hit" {
		t.Errorf("repeat cache = %q, want hit", second.Explain.Cache)
	}
	for _, sp := range second.Explain.Spans {
		if sp.Name == "availability.solve" {
			t.Errorf("repeat evaluation re-solved availability: %+v", second.Explain.Spans)
		}
	}
	if second.Explain.TraceID == first.Explain.TraceID {
		t.Error("both requests share one trace ID")
	}

	// Without ?explain the provenance block must stay off the wire.
	w = do(t, h, http.MethodPost, "/api/v2/evaluate", body)
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["explain"]; ok {
		t.Error("explain block present without ?explain=1")
	}
}

// TestDebugTracesOptIn mirrors TestPprofOptIn: the recent-trace dump
// exists only behind -pprof, and once enabled it shows each request as
// a root http.request span with the engine and solver child spans
// hanging off it.
func TestDebugTracesOptIn(t *testing.T) {
	off := testServer(t).handler()
	if w := do(t, off, http.MethodGet, "/debug/traces", ""); w.Code != http.StatusNotFound {
		t.Errorf("traces disabled: status = %d, want 404", w.Code)
	}

	on := mustServer(t, freshStudy(t), serverConfig{pprof: true}).handler()
	if w := do(t, on, http.MethodPost, "/api/v2/evaluate", d1111Body); w.Code != http.StatusOK {
		t.Fatalf("evaluate status = %d: %s", w.Code, w.Body)
	}
	w := do(t, on, http.MethodGet, "/debug/traces", "")
	if w.Code != http.StatusOK {
		t.Fatalf("traces enabled: status = %d", w.Code)
	}
	var dump struct {
		Traces []trace.Trace `json:"traces"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Traces) == 0 {
		t.Fatal("no traces in the ring after an evaluation")
	}
	tr := dump.Traces[0] // newest first: the evaluate request
	if tr.Root != "http.request" {
		t.Fatalf("root = %q, want http.request", tr.Root)
	}
	var root *trace.SpanData
	names := map[string]bool{}
	for i, sp := range tr.Spans {
		names[sp.Name] = true
		if sp.Name == "http.request" {
			root = &tr.Spans[i]
		}
	}
	if root == nil {
		t.Fatal("no http.request span in the trace")
	}
	if root.ParentID != "" {
		t.Errorf("http.request has parent %q, want none", root.ParentID)
	}
	for _, want := range []string{"engine.evaluate", "availability.solve", "security.evaluate"} {
		if !names[want] {
			t.Errorf("trace missing child span %q (got %v)", want, names)
		}
	}
	for _, sp := range tr.Spans {
		if sp.Name == "engine.evaluate" && sp.ParentID == "" {
			t.Error("engine.evaluate span is not linked under the request")
		}
	}
}

// TestSweepStreamProgress: with a tiny progress interval the NDJSON
// stream must interleave {"progress":true,...} events carrying
// done/total, the cache-hit ratio and an ETA.
func TestSweepStreamProgress(t *testing.T) {
	s := mustServer(t, freshStudy(t), serverConfig{progressEvery: time.Nanosecond})
	h := s.handler()
	body := `{"tiers":[
		{"role":"dns","min":1,"max":1},
		{"role":"web","min":1,"max":3},
		{"role":"app","min":1,"max":1},
		{"role":"db","min":1,"max":1}]}`
	w := do(t, h, http.MethodPost, "/api/v2/sweep/stream", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var progress int
	for _, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		// The trailer reuses the "done" key as a bool, so probe for the
		// progress marker before decoding the typed event.
		var probe struct {
			Progress bool `json:"progress"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if !probe.Progress {
			continue
		}
		var ev struct {
			Progress      bool     `json:"progress"`
			Done          *int     `json:"done"`
			Total         *int     `json:"total"`
			CacheHitRatio *float64 `json:"cacheHitRatio"`
			ETASeconds    *float64 `json:"etaSeconds"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad progress line %q: %v", line, err)
		}
		progress++
		if ev.Done == nil || ev.Total == nil || ev.CacheHitRatio == nil || ev.ETASeconds == nil {
			t.Fatalf("progress event missing fields: %s", line)
		}
		if *ev.Total != 3 || *ev.Done < 1 || *ev.Done >= *ev.Total {
			t.Errorf("progress done/total = %d/%d", *ev.Done, *ev.Total)
		}
		if *ev.CacheHitRatio < 0 || *ev.CacheHitRatio > 1 {
			t.Errorf("cacheHitRatio = %g", *ev.CacheHitRatio)
		}
		if *ev.ETASeconds < 0 {
			t.Errorf("etaSeconds = %g", *ev.ETASeconds)
		}
	}
	// 3 designs → progress after the 1st and 2nd completion; the final
	// completion is reported by the done trailer instead.
	if progress != 2 {
		t.Errorf("progress events = %d, want 2", progress)
	}
}

// signalWriter is an NDJSON sink that cancels the request on its first
// write — the plug is pulled synchronously the moment streaming starts,
// so the cancellation always lands mid-sweep.
type signalWriter struct {
	mu     sync.Mutex
	header http.Header
	once   sync.Once
	cancel context.CancelFunc
}

func (w *signalWriter) Header() http.Header {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.header == nil {
		w.header = make(http.Header)
	}
	return w.header
}

func (w *signalWriter) WriteHeader(int) {}

func (w *signalWriter) Write(p []byte) (int, error) {
	w.once.Do(w.cancel)
	return len(p), nil
}

// TestSweepStreamCancellation: a client disconnect mid-stream must stop
// the engine from issuing further work, close the root span as
// cancelled in the trace ring, and leave no goroutine behind once
// in-flight solves drain.
func TestSweepStreamCancellation(t *testing.T) {
	s := mustServer(t, freshStudy(t), serverConfig{})
	h := s.handler()
	before := runtime.NumGoroutine()

	// 1296 designs, cancelled synchronously on the first streamed
	// report: the engine must abandon the rest of the space.
	body := `{"tiers":[
		{"role":"dns","min":1,"max":6},
		{"role":"web","min":1,"max":6},
		{"role":"app","min":1,"max":6},
		{"role":"db","min":1,"max":6}]}`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/api/v2/sweep/stream", strings.NewReader(body)).WithContext(ctx)
	w := &signalWriter{cancel: cancel}
	h.ServeHTTP(w, req) // returns once the engine abandoned the sweep

	// The root span ends cancelled, but the trace reaches the ring only
	// after the last in-flight solve span ends; poll for it.
	deadline := time.Now().Add(10 * time.Second)
	var root *trace.SpanData
	for root == nil {
		for _, tr := range s.tracer.Recent() {
			if tr.Root != "http.request" {
				continue
			}
			for i := range tr.Spans {
				if tr.Spans[i].Name == "http.request" {
					root = &tr.Spans[i]
				}
			}
		}
		if root == nil {
			if time.Now().After(deadline) {
				var roots []string
				for _, tr := range s.tracer.Recent() {
					roots = append(roots, tr.Root)
				}
				t.Fatalf("cancelled request never completed its trace; ring roots = %v", roots)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if root.Status != trace.StatusCancelled {
		t.Errorf("root span status = %q, want %q", root.Status, trace.StatusCancelled)
	}

	// Engine must have stopped issuing work: nowhere near 1296 solves.
	if st := s.study.EngineStats(); st.Solves >= 1296 {
		t.Errorf("engine solved all %d designs despite cancellation", st.Solves)
	}

	// No goroutine leak: the pool and collector wind down once the
	// in-flight designs finish.
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines = %d, want <= %d\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRequestFailureLoggedWithTraceID: a 5xx response must emit an
// error record through the request context, stamped with the trace and
// span IDs of the request's root span so the log line can be joined
// with /debug/traces.
func TestRequestFailureLoggedWithTraceID(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(trace.NewLogHandler(slog.NewJSONHandler(&buf, nil)))
	s := mustServer(t, freshStudy(t), serverConfig{logger: logger})
	h := s.route("GET /boom", nil, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})

	w := httptest.NewRecorder()
	h(w, httptest.NewRequest(http.MethodGet, "/boom", nil))

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("no parseable log record after 500: %q (%v)", buf.String(), err)
	}
	if rec["level"] != "ERROR" {
		t.Errorf("level = %v, want ERROR", rec["level"])
	}
	id, _ := rec["trace_id"].(string)
	if len(id) != 32 {
		t.Errorf("trace_id = %v, want 32-hex id", rec["trace_id"])
	}
	if sid, _ := rec["span_id"].(string); len(sid) != 16 {
		t.Errorf("span_id = %v, want 16-hex id", rec["span_id"])
	}
	if rec["route"] != "GET /boom" || rec["status"] != float64(500) {
		t.Errorf("record = %v, want route and status attrs", rec)
	}

	// A 200 must stay quiet: the middleware only logs failures.
	buf.Reset()
	ok := s.route("GET /ok", nil, func(w http.ResponseWriter, r *http.Request) {})
	ok(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/ok", nil))
	if buf.Len() != 0 {
		t.Errorf("2xx response logged: %q", buf.String())
	}
}

// TestRootSpanMatchesMetrics: the root span and the request metrics are
// written from one status, so for every route and code
// redpatchd_http_requests_total equals the number of http.request root
// spans carrying that route and status — across a 200, a 400 for a bad
// timeout_ms, a 500 from a recovered panic and a 504 from an exhausted
// deadline. The 504's root span ends cancelled, like the engine span
// the deadline cut short.
func TestRootSpanMatchesMetrics(t *testing.T) {
	inj := faultinject.New(6)
	s := mustServer(t, chaosStudy(t, inj), serverConfig{chaos: inj})
	h := s.handler()
	const body = `{"spec":{"tiers":[{"role":"web","replicas":1}]}}`

	for i, c := range []struct {
		site  string
		fault faultinject.Site
		query string
		code  int
	}{
		{"", faultinject.Site{}, "", http.StatusOK},
		{"", faultinject.Site{}, "?timeout_ms=soon", http.StatusBadRequest},
		{"http.evaluate", faultinject.Site{PanicProb: 1}, "", http.StatusInternalServerError},
		{redpatch.ChaosSiteEvaluate, faultinject.Site{LatencyProb: 1, Latency: 2 * time.Second}, "?timeout_ms=50", http.StatusGatewayTimeout},
	} {
		inj.Configure("http.evaluate", faultinject.Site{})
		inj.Configure(redpatch.ChaosSiteEvaluate, faultinject.Site{})
		if c.site != "" {
			inj.Configure(c.site, c.fault)
		}
		// A fresh design each time, so the 504 cannot be a memo hit.
		b := strings.Replace(body, `"replicas":1`, fmt.Sprintf(`"replicas":%d`, i+1), 1)
		if w := do(t, h, http.MethodPost, "/api/v2/evaluate"+c.query, b); w.Code != c.code {
			t.Fatalf("%s%s: status = %d, want %d: %s", c.site, c.query, w.Code, c.code, w.Body)
		}
	}

	// The timed-out solve may end its engine span after the root span;
	// the trace reaches the ring once both have.
	var timedOut *trace.Trace
	waitCond(t, "the 504 trace", func() bool {
		for _, tr := range s.tracer.Recent() {
			for _, sp := range tr.Spans {
				if st, _ := sp.Attr("status"); sp.Name == "http.request" && st == http.StatusGatewayTimeout {
					timedOut = &tr
					return true
				}
			}
		}
		return false
	})
	for _, sp := range timedOut.Spans {
		if (sp.Name == "http.request" || sp.Name == "engine.evaluate") && sp.Status != trace.StatusCancelled {
			t.Errorf("504 %s span ended %q, want %q", sp.Name, sp.Status, trace.StatusCancelled)
		}
	}

	// Read the ring before the scrape, whose own request is in neither.
	spans := map[string]int{}
	for _, tr := range s.tracer.Recent() {
		for _, sp := range tr.Spans {
			if sp.Name != "http.request" {
				continue
			}
			route, _ := sp.Attr("route")
			status, _ := sp.Attr("status")
			spans[fmt.Sprintf(`redpatchd_http_requests_total{route=%q,code="%d"}`, route, status)]++
		}
	}
	counted := map[string]int{}
	for _, line := range strings.Split(scrape(t, h), "\n") {
		if series, v, ok := strings.Cut(line, "} "); ok && strings.HasPrefix(series, "redpatchd_http_requests_total{") {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			counted[series+"}"] = n
		}
	}
	if len(counted) != 4 || !reflect.DeepEqual(spans, counted) {
		t.Errorf("root spans by route/code = %v\nrequests_total = %v", spans, counted)
	}
}
