package main

// Resilience: per-endpoint-class admission control (FIFO concurrency
// limiting with bounded queues and 429 + Retry-After load shedding) and
// the request budget (-request-timeout and the per-request ?timeout_ms=
// override). The route wrapper (server.route, main.go) applies the
// deadline and the class limiter, and recovers panics: a panicking
// solver or handler becomes a 500 with a span panic attribute, never a
// dead process.
//
// Three endpoint classes share the model workers: evaluate (single
// design evaluations, rank-patches, plan-campaign), sweep (design-space
// sweeps, NDJSON streaming included) and fleet (fleet planning and
// simulation). Cheap registry/health/metrics routes are unlimited.
// Evaluate requests whose design is already in the memo cache bypass
// the limiter — a saturated daemon still answers warm queries with a
// map lookup.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"redpatch/internal/admission"
	"redpatch/internal/trace"
)

// classLimits sizes one endpoint class's limiter. Zero values select
// the class defaults; a negative concurrency disables the limiter for
// the class; a negative queue means "no queue" (shed whatever cannot
// start immediately).
type classLimits struct {
	concurrency int
	queue       int
}

// admissionConfig carries the per-class limits and the shared wait
// budget. The zero value selects all defaults.
type admissionConfig struct {
	evaluate classLimits // default 64 in flight, 256 queued
	sweep    classLimits // default 4 in flight, 16 queued
	fleet    classLimits // default 4 in flight, 16 queued
	// maxWait bounds queue time; 0 selects 10s, negative disables the
	// budget (the request context is then the only wait bound).
	maxWait time.Duration
}

// limiter builds one class's limiter, nil when disabled.
func (c classLimits) limiter(name string, defC, defQ int, maxWait time.Duration) *admission.Limiter {
	cc, q := c.concurrency, c.queue
	if cc == 0 {
		cc = defC
	}
	if q == 0 {
		q = defQ
	}
	if cc < 0 {
		return nil
	}
	if q < 0 {
		q = 0
	}
	return admission.New(name, admission.Options{Concurrency: cc, Queue: q, MaxWait: maxWait})
}

// admissionLimiters holds the three class limiters; a nil entry means
// the class is unlimited.
type admissionLimiters struct {
	evaluate *admission.Limiter
	sweep    *admission.Limiter
	fleet    *admission.Limiter
}

func newAdmissionLimiters(cfg admissionConfig) admissionLimiters {
	wait := cfg.maxWait
	if wait == 0 {
		wait = 10 * time.Second
	}
	if wait < 0 {
		wait = 0
	}
	return admissionLimiters{
		evaluate: cfg.evaluate.limiter("evaluate", 64, 256, wait),
		sweep:    cfg.sweep.limiter("sweep", 4, 16, wait),
		fleet:    cfg.fleet.limiter("fleet", 4, 16, wait),
	}
}

// all returns the active limiters for the metrics collectors.
func (a admissionLimiters) all() []*admission.Limiter {
	var out []*admission.Limiter
	for _, l := range []*admission.Limiter{a.evaluate, a.sweep, a.fleet} {
		if l != nil {
			out = append(out, l)
		}
	}
	return out
}

// admitEvaluate is the evaluate class's in-handler admission (evaluate
// and rank-patches), called after the request decoded and passed its
// checks: warm specs (already in the scenario's
// memo cache, and already served by the lookup that found them) return
// at once, never touching the limiter — the whole point of the bypass
// is that a saturated daemon still answers them. Returns ok=false with
// the shed response written.
func (s *server) admitEvaluate(w http.ResponseWriter, r *http.Request, warm bool) (release func(), ok bool) {
	l := s.adm.evaluate
	if warm || l == nil {
		return func() {}, true
	}
	rel, err := l.Acquire(r.Context())
	if err != nil {
		s.shed(w, r, l, r.Pattern, err)
		return nil, false
	}
	return rel, true
}

// shed answers a rejected request: overload sheds (queue full, wait
// budget) get 429 + Retry-After; a request whose own context ended
// while queued gets the usual cancellation/deadline status. Every shed
// is counted by class and reason.
func (s *server) shed(w http.ResponseWriter, r *http.Request, l *admission.Limiter, route string, err error) {
	reason := shedReason(err)
	s.metrics.admissionSheds.With(l.Name(), reason).Inc()
	if sp := trace.FromContext(r.Context()); sp != nil {
		sp.SetAttr("shed", reason)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		writeError(w, statusFor(err), err)
		return
	}
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter(route, l)))
	writeError(w, http.StatusTooManyRequests,
		fmt.Errorf("%s overloaded: %w", l.Name(), err))
}

func shedReason(err error) string {
	switch {
	case errors.Is(err, admission.ErrQueueFull):
		return "queue_full"
	case errors.Is(err, admission.ErrWaitBudget):
		return "wait_budget"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "canceled"
	}
}

// retryAfter estimates when a shed caller should come back: the
// route's mean observed latency times the number of requests ahead of
// it (in flight plus queued, plus itself), divided by the class
// concurrency — i.e. the expected queue drain time — clamped to
// [1, 120] seconds. Before any latency observation the estimate falls
// back to one second per request ahead.
func (s *server) retryAfter(route string, l *admission.Limiter) int {
	mean := s.metrics.latency.With(route).Mean()
	if mean <= 0 {
		mean = 1
	}
	st := l.Stats()
	est := mean * float64(st.InFlight+st.Waiting+1) / float64(l.Concurrency())
	secs := int(math.Ceil(est))
	if secs < 1 {
		secs = 1
	}
	if secs > 120 {
		secs = 120
	}
	return secs
}

// deadline returns the request's time budget, 0 for unbounded:
// -request-timeout is the ceiling and ?timeout_ms= may only tighten it.
// The deadline flows through the request context into the engine and
// fleet layers — queued sweep designs are dropped, joins on in-flight
// solves abandoned, simulations stopped between windows — and requests
// that exhaust it answer 504 (or a budget_exhausted NDJSON trailer once
// a stream has started). A timeout_ms too large to be a Duration
// tightens nothing: multiplied out, it would wrap into a negative or
// tiny budget.
func (s *server) deadline(r *http.Request) (time.Duration, error) {
	d := max(s.requestTimeout, 0)
	q := query(r).Get("timeout_ms")
	if q == "" {
		return d, nil
	}
	ms, err := strconv.ParseInt(q, 10, 64)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("timeout_ms=%q: want a positive integer", q)
	}
	if ms > math.MaxInt64/int64(time.Millisecond) {
		return d, nil
	}
	if qd := time.Duration(ms) * time.Millisecond; d == 0 || qd < d {
		d = qd
	}
	return d, nil
}

// streamErrorTrailer classifies an error that ended an NDJSON stream
// after the first byte: the status code is spent, so the trailer line
// carries the verdict — "budget_exhausted" for an exhausted request
// deadline, "canceled" for a client disconnect, "internal" otherwise.
func streamErrorTrailer(err error) streamError {
	tr := streamError{err: err.Error()}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		tr.reason = "budget_exhausted"
	case errors.Is(err, context.Canceled):
		tr.reason = "canceled"
	default:
		tr.reason = "internal"
	}
	return tr
}
