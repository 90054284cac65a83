package main

// Request tracing: the route wrapper (server.route, main.go) runs every
// request under a root span on its deadline context (joining an inbound
// W3C traceparent when the caller sends one; an expired deadline or a
// client disconnect ends it cancelled), the engine and solver layers
// hang child spans off it through the request context, and the
// tracer's bounded ring retains recent traces for GET
// /debug/traces (gated, like pprof, behind -pprof) and the ?explain=1
// provenance block on v2 evaluate. Span durations also feed the
// queue-wait and per-solver latency histograms through the tracer's
// OnEnd hook, so /metrics gains solver-time visibility without any
// instrumentation inside the solvers themselves.

import (
	"context"
	"net/http"
	"time"

	"redpatch/internal/trace"
)

// observeSpan is the tracer's OnEnd hook: it derives the exemplar-free
// histograms from finished spans — queue wait off the median a design
// or rollout sweep's span carries for its items, solve time by solver
// kind off the availability and security spans. It runs on whatever
// goroutine ended the span; the instruments are concurrency-safe.
func (m *serverMetrics) observeSpan(d trace.SpanData) {
	switch d.Name {
	case "engine.sweep", "rollout.sweep":
		if v, ok := d.Attr("queue_wait_ns_p50"); ok {
			if ns, ok := v.(int64); ok {
				m.queueWait.Observe(float64(ns) / 1e9)
			}
		}
	case "availability.solve":
		m.solverTime.With("availability_factored").Observe(d.Duration.Seconds())
	case "security.evaluate":
		m.solverTime.With("security_quotient").Observe(d.Duration.Seconds())
	}
}

// explainSpan is one span of the ?explain=1 timing breakdown.
type explainSpan struct {
	Name       string         `json:"name"`
	DurationMs float64        `json:"durationMs"`
	Status     string         `json:"status"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// wantExplain reports whether the request asked for provenance.
func wantExplain(r *http.Request) bool {
	v := query(r).Get("explain")
	return v == "1" || v == "true"
}

// explain summarizes the current request's finished spans into the
// provenance block: which solver answered each axis, whether the engine
// cache (and the security memo behind it) hit, and the per-span timing
// breakdown. It reads the live trace record — the root span is still
// open while the handler runs, but every solver span has ended by the
// time the evaluation returned.
func (s *server) explain(ctx context.Context) map[string]any {
	sp := trace.FromContext(ctx)
	if sp == nil {
		return nil
	}
	prov := map[string]any{"traceId": sp.TraceID()}
	spans := s.tracer.Collect(sp.TraceID())
	out := make([]explainSpan, 0, len(spans))
	for _, d := range spans {
		es := explainSpan{
			Name:       d.Name,
			DurationMs: float64(d.Duration) / float64(time.Millisecond),
			Status:     d.Status,
		}
		if len(d.Attrs) > 0 {
			es.Attrs = make(map[string]any, len(d.Attrs))
			for _, a := range d.Attrs {
				es.Attrs[a.Key] = a.Value
			}
		}
		out = append(out, es)
		switch d.Name {
		case "engine.evaluate":
			if v, ok := d.Attr("cache"); ok {
				prov["cache"] = v
			}
			// Memo-served solves never open a span of their own: the
			// solvers record provenance on the engine span instead.
			if v, ok := d.Attr("availability_solver"); ok {
				prov["availabilitySolver"] = v
			}
			if v, ok := d.Attr("security_solver"); ok {
				prov["securitySolver"] = v
			}
			if v, ok := d.Attr("security_memo"); ok {
				prov["securityMemo"] = v
			}
		case "availability.solve":
			if v, ok := d.Attr("solver"); ok {
				prov["availabilitySolver"] = v
			}
		case "security.evaluate":
			if v, ok := d.Attr("solver"); ok {
				prov["securitySolver"] = v
			}
			if v, ok := d.Attr("memo"); ok {
				prov["securityMemo"] = v
			}
		}
	}
	prov["spans"] = out
	return prov
}

// handleDebugTraces dumps the recent-trace ring as JSON, newest first.
// Registered only with -pprof: traces expose request shapes and
// internal timings, the same class of detail as the profiler surface.
func (s *server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.tracer.Recent()})
}
