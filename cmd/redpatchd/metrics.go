package main

// Observability: the route wrapper (server.route, main.go) records each
// request's count (by route pattern and status code), latency and
// in-flight gauge from the same status it writes onto the root span,
// and GET /metrics exposes them — alongside the per-scenario engine and
// solver counters and the cache-persistence counters — in the
// Prometheus text format via the dependency-free internal/metrics
// registry.

import (
	"net/http"
	"time"

	"redpatch"

	"redpatch/internal/admission"
	"redpatch/internal/metrics"
)

// serverMetrics bundles the daemon's registry and the instruments the
// handlers and cache store write to. Engine and scenario counters are
// not duplicated here: they are read from the live engines at scrape
// time by the collectors registerCollectors wires up; the queue-wait
// and solver-time histograms are fed from finished trace spans (see
// observeSpan), not from instrumentation inside the solvers.
type serverMetrics struct {
	reg        *metrics.Registry
	requests   *metrics.CounterVec   // route, code
	latency    *metrics.HistogramVec // route
	inFlight   *metrics.Gauge
	queueWait  *metrics.Histogram
	solverTime *metrics.HistogramVec // kind

	cacheRestoredEntries *metrics.Counter
	cacheRestoreErrors   *metrics.Counter
	cacheFlushes         *metrics.Counter
	cacheFlushErrors     *metrics.Counter

	fleetPlans           *metrics.Counter
	fleetSimulations     *metrics.Counter
	fleetWindowsPlanned  *metrics.Counter
	fleetWindowsExecuted *metrics.CounterVec // outcome
	fleetDeadlineAtRisk  *metrics.Gauge

	admissionSheds *metrics.CounterVec // class, reason
	panics         *metrics.Counter
	timeouts       *metrics.Counter
	persistRetries *metrics.Counter
}

func newServerMetrics() *serverMetrics {
	reg := metrics.NewRegistry()
	return &serverMetrics{
		reg: reg,
		requests: reg.NewCounterVec("redpatchd_http_requests_total",
			"HTTP requests served, by route pattern and status code.", "route", "code"),
		latency: reg.NewHistogramVec("redpatchd_http_request_duration_seconds",
			"HTTP request latency by route pattern.", nil, "route"),
		inFlight: reg.NewGauge("redpatchd_http_in_flight_requests",
			"HTTP requests currently being served."),
		// Factored solves finish in microseconds and sweep backlogs reach
		// seconds; DefBuckets' 5ms floor would flatten both, so these use
		// exponential bucket spreads instead.
		queueWait: reg.NewHistogram("redpatchd_engine_queue_wait_seconds",
			"Median time, per sweep, from sweep start until a pool worker picked an item up, from the sweep's trace span.",
			metrics.ExpBuckets(1e-5, 4, 12)),
		solverTime: reg.NewHistogramVec("redpatchd_solver_duration_seconds",
			"Model solve time by solver kind, from trace spans.",
			metrics.ExpBuckets(1e-6, 4, 14), "kind"),
		cacheRestoredEntries: reg.NewCounter("redpatchd_cache_restored_entries_total",
			"Memo-cache entries restored from disk across all scenarios."),
		cacheRestoreErrors: reg.NewCounter("redpatchd_cache_restore_errors_total",
			"Cache dumps rejected on load (fingerprint/version mismatch or corruption)."),
		cacheFlushes: reg.NewCounter("redpatchd_cache_flushes_total",
			"Cache dumps written to disk (periodic, on shutdown, or on scenario load)."),
		cacheFlushErrors: reg.NewCounter("redpatchd_cache_flush_errors_total",
			"Cache dumps that failed to write."),
		fleetPlans: reg.NewCounter("redpatchd_fleet_plans_total",
			"Fleet campaign plans computed (plan and simulate requests)."),
		fleetSimulations: reg.NewCounter("redpatchd_fleet_simulations_total",
			"Fleet campaign simulations streamed."),
		fleetWindowsPlanned: reg.NewCounter("redpatchd_fleet_windows_planned_total",
			"Maintenance windows scheduled across all fleet plans."),
		fleetWindowsExecuted: reg.NewCounterVec("redpatchd_fleet_windows_executed_total",
			"Simulated maintenance windows executed, by outcome (succeeded, rolledBack, or deferred for the rollback that exhausted a round's attempts).",
			"outcome"),
		fleetDeadlineAtRisk: reg.NewGauge("redpatchd_fleet_deadline_at_risk",
			"Systems whose campaign misses their compliance deadline in the most recent fleet plan."),
		admissionSheds: reg.NewCounterVec("redpatchd_admission_sheds_total",
			"Requests shed by admission control, by endpoint class and reason (queue_full, wait_budget, deadline, canceled).",
			"class", "reason"),
		panics: reg.NewCounter("redpatchd_handler_panics_total",
			"Handler panics recovered into 500 responses."),
		timeouts: reg.NewCounter("redpatchd_request_timeouts_total",
			"Requests whose deadline (-request-timeout or ?timeout_ms=) expired."),
		persistRetries: reg.NewCounter("redpatchd_persist_retries_total",
			"Backoff retries scheduled after failed cache or fleet persistence flushes."),
	}
}

// registerCollectors wires the scrape-time collectors reading live
// server state: the per-scenario engine and availability-solver
// counters, cache sizes, scenario count and uptime. Called once the
// scenario registry exists.
func (m *serverMetrics) registerCollectors(s *server) {
	perScenario := func(get func(*scenario) float64) func() []metrics.Sample {
		return func() []metrics.Sample {
			scs := s.reg.list()
			out := make([]metrics.Sample, len(scs))
			for i, sc := range scs {
				out[i] = metrics.Sample{Labels: []string{sc.name}, Value: get(sc)}
			}
			return out
		}
	}
	engineCounter := func(name, help string, get func(redpatch.EngineStats) uint64) {
		m.reg.NewCounterVecFunc(name, help, []string{"scenario"}, perScenario(func(sc *scenario) float64 {
			return float64(get(sc.study.EngineStats()))
		}))
	}
	engineCounter("redpatchd_engine_solves_total",
		"Full design evaluations performed (memo-cache misses).",
		func(st redpatch.EngineStats) uint64 { return st.Solves })
	engineCounter("redpatchd_engine_cache_hits_total",
		"Design evaluations served from the memo cache, including joins on in-flight solves.",
		func(st redpatch.EngineStats) uint64 { return st.Hits })
	engineCounter("redpatchd_engine_factored_solves_total",
		"Availability solves served by the factored per-tier path.",
		func(st redpatch.EngineStats) uint64 { return st.FactoredSolves })
	engineCounter("redpatchd_engine_tier_solves_total",
		"Distinct (stack, replicas) tier factors solved.",
		func(st redpatch.EngineStats) uint64 { return st.TierSolves })
	engineCounter("redpatchd_engine_tier_factor_hits_total",
		"Tier factors served from the per-evaluator memo.",
		func(st redpatch.EngineStats) uint64 { return st.TierFactorHits })
	engineCounter("redpatchd_engine_security_factored_total",
		"Security evaluations served by the factored (quotient) HARM path.",
		func(st redpatch.EngineStats) uint64 { return st.SecurityFactored })
	engineCounter("redpatchd_engine_security_solves_total",
		"Factored security models built (one per rollout structure; an atomic design's structure needs two).",
		func(st redpatch.EngineStats) uint64 { return st.SecuritySolves })
	engineCounter("redpatchd_engine_security_factor_hits_total",
		"Security-model lookups served from the security memo.",
		func(st redpatch.EngineStats) uint64 { return st.SecurityFactorHits })
	engineCounter("redpatchd_engine_rollout_solves_total",
		"Rollout-point evaluations performed (memo misses at rollout points).",
		func(st redpatch.EngineStats) uint64 { return st.RolloutSolves })
	engineCounter("redpatchd_engine_rollout_cache_hits_total",
		"Rollout-point evaluations served from the memo, including joins on in-flight solves.",
		func(st redpatch.EngineStats) uint64 { return st.RolloutHits })
	m.reg.NewGaugeVecFunc("redpatchd_engine_cache_entries",
		"Completed designs and rollout points in the memo cache.", []string{"scenario"},
		perScenario(func(sc *scenario) float64 { return float64(sc.study.CacheEntries()) }))
	m.reg.NewGaugeFunc("redpatchd_fleet_systems",
		"Systems registered in the fleet.",
		func() float64 { return float64(s.fleetReg.Len()) })
	// Admission limiter state is read live at scrape time, one sample per
	// active endpoint class.
	admStat := func(get func(admission.Stats) float64) func() []metrics.Sample {
		return func() []metrics.Sample {
			ls := s.adm.all()
			out := make([]metrics.Sample, len(ls))
			for i, l := range ls {
				out[i] = metrics.Sample{Labels: []string{l.Name()}, Value: get(l.Stats())}
			}
			return out
		}
	}
	m.reg.NewGaugeVecFunc("redpatchd_admission_in_flight",
		"Requests currently holding an admission slot, by endpoint class.",
		[]string{"class"}, admStat(func(st admission.Stats) float64 { return float64(st.InFlight) }))
	m.reg.NewGaugeVecFunc("redpatchd_admission_waiting",
		"Requests queued for admission, by endpoint class.",
		[]string{"class"}, admStat(func(st admission.Stats) float64 { return float64(st.Waiting) }))
	m.reg.NewCounterVecFunc("redpatchd_admission_admitted_total",
		"Requests admitted past the limiter, by endpoint class.",
		[]string{"class"}, admStat(func(st admission.Stats) float64 { return float64(st.Admitted) }))
	m.reg.NewGaugeFunc("redpatchd_scenarios",
		"Registered scenarios, the default included.",
		func() float64 { return float64(len(s.reg.list())) })
	m.reg.NewGaugeFunc("redpatchd_uptime_seconds",
		"Seconds since the daemon started.",
		func() float64 { return time.Since(s.started).Seconds() })
}

// statusWriter records the status code for the route wrapper's span and
// metrics while passing Flush through, so the NDJSON streaming
// endpoints keep flushing their batches. wrote tracks whether the
// response has started, which panic recovery needs: once the first byte
// is out, no error status can be written.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.reg.Handler().ServeHTTP(w, r)
}
