// Command redpatchd serves the paper's design-evaluation model over
// HTTP/JSON: instead of re-running batch CLIs, administrators query a
// long-lived daemon whose concurrent engine caches every solved design,
// so repeated and overlapping what-if sweeps are answered without
// re-solving the HARM/CTMC models.
//
// Usage:
//
//	redpatchd [-addr :8080] [-workers N] [-max-designs N] [-max-replicas N]
//	          [-max-tiers N] [-max-scenarios N] [-pprof]
//	          [-cache-dir DIR] [-cache-flush D] [-log-format text|json]
//	          [-critical-threshold s] [-patch-all] [-interval-hours h]
//	          [-request-timeout D] [-admission-wait D]
//	          [-evaluate-concurrency N] [-evaluate-queue N]
//	          [-sweep-concurrency N] [-sweep-queue N]
//	          [-fleet-concurrency N] [-fleet-queue N]
//	          [-chaos-seed N] [-chaos-site NAME,EP,LP,LMS,PP]...
//
// Endpoints:
//
//	GET  /healthz          liveness plus engine cache counters
//	GET  /readyz           readiness: 200 once serving, 503 after
//	                       shutdown starts draining
//	GET  /metrics          Prometheus text format: per-route request
//	                       counts and latency histograms, per-scenario
//	                       engine/solver counters, cache persistence
//	GET    /api/v2/scenarios        list registered scenarios
//	POST   /api/v2/scenarios        register a (policy, schedule) scenario
//	DELETE /api/v2/scenarios/{name} delete a scenario
//	POST   /api/v2/evaluate         one role-keyed spec, per scenario
//	POST   /api/v2/sweep/stream     a role-keyed sweep (variant sets
//	                                allowed) as batched NDJSON, ending in
//	                                a done trailer with the Pareto front
//	POST   /api/v2/rollout/sweep    mixed-version rollout frontier, NDJSON
//	POST   /api/v2/rank-patches     policy-aware single-patch ranking
//	POST   /api/v2/plan-campaign    maintenance-window campaign planning
//
//	POST   /api/v2/fleet/register     register modeled systems in the fleet
//	GET    /api/v2/fleet/systems      list the registered fleet
//	DELETE /api/v2/fleet/systems/{id} remove one system
//	POST   /api/v2/fleet/plan         schedule a fleet-wide patch campaign
//	POST   /api/v2/fleet/simulate     execute the plan under try-revert
//	                                  rollback, streamed as NDJSON events
//
// With -cache-dir the daemon persists every scenario's engine memo
// cache to <dir>/<scenario>.cache.json — on graceful shutdown and every
// -cache-flush interval while dirty — and restores it on startup and on
// scenario registration, so restarts keep the warmed cache; the fleet
// registry rides along as <dir>/fleet.json, so a restarted daemon also
// keeps its registered systems. Dumps are
// fingerprinted by the vulnerability dataset, patch policy and
// schedule; a file written under different inputs is rejected with a
// logged reason, never merged.
//
// Every request runs under a trace: the daemon opens a root span per
// request (joining an inbound W3C traceparent header when present), the
// engine and solver layers attach child spans through the request
// context, and a bounded in-memory ring retains recent traces.
// ?explain=1 on POST /api/v2/evaluate returns the per-spec provenance
// derived from those spans — which solver ran, whether the memo caches
// hit, and the span timing breakdown — and /api/v2/sweep/stream emits
// periodic {"progress":true,...} NDJSON events with done/total counts,
// the cache-hit ratio and an ETA. Logs are structured (log/slog) and
// carry trace_id/span_id; -log-format selects json or text.
//
// Every route registers through one request wrapper (server.route):
// it applies the request deadline, opens the root span on it, admits
// the request, recovers panics into 500s, and records the request
// metrics from the same status it writes onto the span. The daemon
// defends itself under load (see admission.go): model-solving endpoints
// are split into three admission classes — evaluate, sweep, fleet —
// each with a bounded concurrency limit and FIFO wait queue; requests
// beyond both are shed with 429 and a Retry-After estimate derived from
// the route's observed latency. Evaluate requests whose design is
// already memoized bypass the limiter. -request-timeout (and the
// per-request ?timeout_ms= override, which can only tighten it) flows
// as a context deadline through the engine and fleet layers; exhausted
// budgets answer 504, or a {"error":...,"reason":"budget_exhausted"}
// NDJSON trailer once a stream has started.
//
// -chaos-seed/-chaos-site arm the deterministic fault injector at the
// daemon's chaos sites (evaluate, persist, ...) for resilience testing;
// the flag takes a site name plus error/latency/panic probabilities and
// a latency in ms, and may repeat.
//
// With -pprof the daemon additionally mounts net/http/pprof under
// /debug/pprof/ and the recent-trace dump under GET /debug/traces so
// sweep hot spots can be profiled in production; the endpoints are off
// by default because they expose runtime internals.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"redpatch"

	"redpatch/internal/admission"
	"redpatch/internal/faultinject"
	"redpatch/internal/fleet"
	"redpatch/internal/trace"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "evaluation worker pool size; 0 selects GOMAXPROCS")
		maxSweep     = flag.Int("max-designs", 4096, "largest design space one sweep request may enumerate")
		maxRepl      = flag.Int("max-replicas", 16, "largest per-tier replica count any request may ask for (model size grows polynomially in it)")
		maxTiers     = flag.Int("max-tiers", 8, "largest number of tier groups one spec may deploy")
		maxScenarios = flag.Int("max-scenarios", 32, "largest number of registered scenarios")
		threshold    = flag.Float64("critical-threshold", 0, "CVSS base-score patch threshold; 0 selects the paper's 8.0")
		patchAll     = flag.Bool("patch-all", false, "patch every vulnerability regardless of score")
		interval     = flag.Float64("interval-hours", 0, "patch cadence in hours; 0 selects the paper's monthly 720")
		pprofOn      = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ and GET /debug/traces (off by default)")
		cacheDir     = flag.String("cache-dir", "", "directory for persisted engine memo caches; empty disables persistence")
		cacheFlush   = flag.Duration("cache-flush", 5*time.Minute, "periodic cache flush interval with -cache-dir; 0 flushes on shutdown only")
		logFormat    = flag.String("log-format", "text", "structured log format: text or json")
		reqTimeout   = flag.Duration("request-timeout", 0, "server-wide request deadline; 0 disables (?timeout_ms= still applies per request)")
		admWait      = flag.Duration("admission-wait", 0, "longest a request may queue for admission; 0 selects 10s, negative waits until the request deadline")
		evalConc     = flag.Int("evaluate-concurrency", 0, "concurrent evaluate-class requests; 0 selects 64, negative disables the limiter")
		evalQueue    = flag.Int("evaluate-queue", 0, "queued evaluate-class requests beyond the concurrency bound; 0 selects 256, negative disables queueing")
		sweepConc    = flag.Int("sweep-concurrency", 0, "concurrent sweep-class requests; 0 selects 4, negative disables the limiter")
		sweepQueue   = flag.Int("sweep-queue", 0, "queued sweep-class requests; 0 selects 16, negative disables queueing")
		fleetConc    = flag.Int("fleet-concurrency", 0, "concurrent fleet-class requests; 0 selects 4, negative disables the limiter")
		fleetQueue   = flag.Int("fleet-queue", 0, "queued fleet-class requests; 0 selects 16, negative disables queueing")
		chaosSeed    = flag.Int64("chaos-seed", 0, "deterministic seed for -chaos-site fault injection")
	)
	var chaosSites []chaosSiteSpec
	flag.Func("chaos-site",
		"NAME,ERRPROB,LATENCYPROB,LATENCYMS,PANICPROB: inject deterministic faults at a chaos site (repeatable; seeded by -chaos-seed)",
		func(v string) error {
			spec, err := parseChaosSite(v)
			if err != nil {
				return err
			}
			chaosSites = append(chaosSites, spec)
			return nil
		})
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fail := func(err error) {
		logger.Error("redpatchd startup failed", "error", err)
		os.Exit(1)
	}

	var inj *faultinject.Injector
	if len(chaosSites) > 0 {
		inj = faultinject.New(*chaosSeed)
		for _, cs := range chaosSites {
			inj.Configure(cs.name, cs.site)
		}
		logger.Warn("redpatchd running with fault injection enabled",
			"sites", len(chaosSites), "seed", *chaosSeed)
	}

	study, err := redpatch.NewCaseStudyWithConfig(redpatch.Config{
		CriticalThreshold:  *threshold,
		PatchAll:           *patchAll,
		PatchIntervalHours: *interval,
		Workers:            *workers,
		Chaos:              inj,
	})
	if err != nil {
		fail(err)
	}
	hs, err := newServer(study, serverConfig{
		maxDesigns:     *maxSweep,
		maxReplicas:    *maxRepl,
		maxTiers:       *maxTiers,
		maxScenarios:   *maxScenarios,
		workers:        *workers,
		pprof:          *pprofOn,
		cacheDir:       *cacheDir,
		logger:         logger,
		requestTimeout: *reqTimeout,
		chaos:          inj,
		admission: admissionConfig{
			evaluate: classLimits{concurrency: *evalConc, queue: *evalQueue},
			sweep:    classLimits{concurrency: *sweepConc, queue: *sweepQueue},
			fleet:    classLimits{concurrency: *fleetConc, queue: *fleetQueue},
			maxWait:  *admWait,
		},
		defaultConfig: scenarioConfig{
			CriticalThreshold: *threshold,
			PatchAll:          *patchAll,
			IntervalHours:     *interval,
		},
	})
	if err != nil {
		fail(err)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           hs.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if hs.store != nil && *cacheFlush > 0 {
		go hs.flushLoop(ctx, *cacheFlush)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("redpatchd listening", "addr", *addr, "logFormat", *logFormat, "pprof", *pprofOn)

	select {
	case err := <-errc:
		logger.Error("redpatchd serve failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("redpatchd shutting down")
	// Fail readiness first: load balancers stop routing new requests to
	// this process while the in-flight ones finish under Shutdown.
	hs.drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// A timed-out shutdown must still dump whatever finished —
		// exiting here would throw away the whole warmed cache exactly
		// when the daemon was busiest.
		logger.Error("redpatchd shutdown incomplete", "error", err)
	}
	// In-flight evaluations have finished (or were abandoned); dump the
	// warmed caches so the next boot starts where this one left off.
	hs.dumpCaches()
}

// chaosSiteSpec is one parsed -chaos-site flag value.
type chaosSiteSpec struct {
	name string
	site faultinject.Site
}

// parseChaosSite parses NAME,ERRPROB,LATENCYPROB,LATENCYMS,PANICPROB.
func parseChaosSite(v string) (chaosSiteSpec, error) {
	parts := strings.Split(v, ",")
	if len(parts) != 5 || strings.TrimSpace(parts[0]) == "" {
		return chaosSiteSpec{}, fmt.Errorf("-chaos-site %q: want NAME,ERRPROB,LATENCYPROB,LATENCYMS,PANICPROB", v)
	}
	nums := make([]float64, 4)
	for i, p := range parts[1:] {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || f < 0 {
			return chaosSiteSpec{}, fmt.Errorf("-chaos-site %q: field %d: want a non-negative number", v, i+2)
		}
		nums[i] = f
	}
	return chaosSiteSpec{
		name: strings.TrimSpace(parts[0]),
		site: faultinject.Site{
			ErrProb:     nums[0],
			LatencyProb: nums[1],
			Latency:     time.Duration(nums[2] * float64(time.Millisecond)),
			PanicProb:   nums[3],
		},
	}, nil
}

// newLogger builds the daemon's structured logger: slog to stderr in
// the chosen format, with trace_id/span_id stamped onto every record
// logged with a request context (see trace.LogHandler).
func newLogger(format string) (*slog.Logger, error) {
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return nil, fmt.Errorf("-log-format=%q: want text or json", format)
	}
	return slog.New(trace.NewLogHandler(h)), nil
}

// serverConfig carries every request cap and registry parameter in one
// place; zero-value fields select the documented defaults.
type serverConfig struct {
	maxDesigns   int    // largest enumerable sweep space (default 4096)
	maxReplicas  int    // largest per-tier replica count (default 16)
	maxTiers     int    // largest tier-group count per spec (default 8)
	maxScenarios int    // registry capacity (default 32)
	workers      int    // per-scenario worker pool; 0 = GOMAXPROCS
	pprof        bool   // mount /debug/pprof/ and /debug/traces (opt-in)
	cacheDir     string // memo-cache persistence directory; empty disables
	// logger receives the daemon's structured log; nil discards, which
	// keeps library-style uses (tests) quiet by default.
	logger *slog.Logger
	// progressEvery throttles NDJSON sweep progress events (default 2s).
	progressEvery time.Duration
	// defaultConfig is reported as the default scenario's configuration.
	defaultConfig scenarioConfig
	// admission sizes the per-endpoint-class limiters; the zero value
	// selects the documented class defaults (see admission.go).
	admission admissionConfig
	// requestTimeout is the server-wide request deadline ceiling; 0
	// leaves requests unbounded unless they send ?timeout_ms=.
	requestTimeout time.Duration
	// chaos injects deterministic faults at the daemon's chaos sites for
	// resilience testing; nil (production) makes every site a no-op.
	chaos *faultinject.Injector
}

// server carries the scenario registry and request caps behind the HTTP
// handlers. study is the default scenario's case study, whose engine
// counters /healthz reports.
type server struct {
	study          *redpatch.CaseStudy
	reg            *registry
	fleetReg       *fleet.Registry
	metrics        *serverMetrics
	tracer         *trace.Tracer
	log            *slog.Logger
	store          *cacheStore // nil without -cache-dir
	adm            admissionLimiters
	chaos          *faultinject.Injector // nil in production
	draining       atomic.Bool           // set once shutdown begins; fails /readyz
	requestTimeout time.Duration
	maxDesigns     int
	maxReplicas    int
	maxTiers       int
	maxStates      int
	pprof          bool
	progressEvery  time.Duration
	started        time.Time
}

func newServer(study *redpatch.CaseStudy, cfg serverConfig) (*server, error) {
	if cfg.maxDesigns < 1 {
		cfg.maxDesigns = 4096
	}
	if cfg.maxReplicas < 1 {
		cfg.maxReplicas = 16
	}
	if cfg.maxTiers < 1 {
		cfg.maxTiers = 8
	}
	if cfg.logger == nil {
		cfg.logger = slog.New(slog.DiscardHandler)
	}
	if cfg.progressEvery <= 0 {
		cfg.progressEvery = 2 * time.Second
	}
	m := newServerMetrics()
	var store *cacheStore
	if cfg.cacheDir != "" {
		var err error
		if store, err = newCacheStore(cfg.cacheDir, m, cfg.logger); err != nil {
			return nil, err
		}
		store.chaos = cfg.chaos
	}
	s := &server{
		study:    study,
		reg:      newRegistry(study, cfg.defaultConfig, cfg.workers, cfg.maxScenarios, store),
		fleetReg: fleet.NewRegistry(),
		metrics:  m,
		// Tracing is always on: the ring is bounded, its cost is
		// measured end to end (bench/'s trace.overhead_pct and
		// trace.spans_per_op), and the explain surface and histograms
		// need the spans. Only the /debug/traces dump is gated (behind
		// -pprof).
		tracer:         trace.New(trace.Options{OnEnd: m.observeSpan}),
		log:            cfg.logger,
		store:          store,
		adm:            newAdmissionLimiters(cfg.admission),
		chaos:          cfg.chaos,
		requestTimeout: cfg.requestTimeout,
		maxDesigns:     cfg.maxDesigns,
		maxReplicas:    cfg.maxReplicas,
		maxTiers:       cfg.maxTiers,
		// The classic space caps at (maxReplicas+1)^4 CTMC states; hold
		// arbitrary tier chains to the same order of magnitude.
		maxStates:     1 << 20,
		pprof:         cfg.pprof,
		progressEvery: cfg.progressEvery,
		started:       time.Now(),
	}
	m.registerCollectors(s)
	if store != nil {
		// The default scenario exists before any request; warm it now.
		if sc, err := s.reg.get(defaultScenario); err == nil {
			store.load(sc)
		}
		store.loadFleet(s.fleetReg)
	}
	return s, nil
}

// checkReplicas bounds per-tier replica counts: the CTMC state space and
// attack-path count grow polynomially in them, so an unbounded request
// is a denial of service against the shared daemon.
func (s *server) checkReplicas(counts ...int) error {
	for _, n := range counts {
		if n > s.maxReplicas {
			return fmt.Errorf("%d replicas in one tier, above the %d cap", n, s.maxReplicas)
		}
	}
	return nil
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, class *admission.Limiter, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.route(pattern, class, h))
	}
	route("GET /healthz", nil, s.handleHealthz)
	route("GET /readyz", nil, s.handleReadyz)
	route("GET /metrics", nil, s.handleMetrics)
	route("GET /api/v2/scenarios", nil, s.handleScenarioList)
	route("POST /api/v2/scenarios", nil, s.handleScenarioCreate)
	route("DELETE /api/v2/scenarios/{name}", nil, s.handleScenarioDelete)
	// v2 evaluate and rank-patches admit in-handler (see admitEvaluate):
	// only after the spec is decoded can a warm design be recognized and
	// bypass the limiter, or an invalid one be refused before admission.
	route("POST /api/v2/evaluate", nil, s.handleEvaluateV2)
	route("POST /api/v2/sweep/stream", s.adm.sweep, s.handleSweepStream)
	route("POST /api/v2/rollout/sweep", s.adm.sweep, s.handleRolloutSweep)
	route("POST /api/v2/rank-patches", nil, s.handleRankPatches)
	route("POST /api/v2/plan-campaign", s.adm.evaluate, s.handlePlanCampaign)
	route("POST /api/v2/fleet/register", nil, s.handleFleetRegister)
	route("GET /api/v2/fleet/systems", nil, s.handleFleetSystems)
	route("DELETE /api/v2/fleet/systems/{id}", nil, s.handleFleetSystemDelete)
	route("POST /api/v2/fleet/plan", s.adm.fleet, s.handleFleetPlan)
	route("POST /api/v2/fleet/simulate", s.adm.fleet, s.handleFleetSimulate)
	if s.pprof {
		// Explicit registrations rather than the net/http/pprof side
		// effect: the daemon never serves http.DefaultServeMux. No
		// method restriction — pprof tooling POSTs to /symbol.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		// The recent-trace ring rides the same opt-in: span attributes
		// reveal request shapes and internal timings.
		route("GET /debug/traces", nil, s.handleDebugTraces)
	}
	return mux
}

// route is the one request wrapper every route registers through, with
// its mux pattern as the metrics route label and span attribute (a
// bounded label set, whatever URLs clients send). In order, it applies
// the request deadline, opens the root span on the deadline context,
// admits the request through its class limiter (nil for unlimited
// routes; queued waiters respect the deadline) and serves it. One
// deferred block recovers a panic into a 500, releases the admission
// slot, ends the span and records the request metrics from the same
// status, so the span and /metrics cannot disagree.
func (s *server) route(pattern string, class *admission.Limiter, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.latency.With(pattern)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.metrics.inFlight.Inc()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		ctx := r.Context()
		if r.URL.RawQuery != "" {
			// Parsed once: the deadline and the handlers read it back.
			ctx = context.WithValue(ctx, queryKey{}, r.URL.Query())
			r = r.WithContext(ctx)
		}
		d, derr := s.deadline(r)
		if d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			// Deferred before the end block, so it runs after it: the
			// span and the timeout counter read the deadline's verdict,
			// not this cancellation.
			defer cancel()
		}
		ctx, sp := trace.Start(trace.Extract(trace.WithTracer(ctx, s.tracer), r), "http.request",
			trace.Attr{Key: "route", Value: pattern},
			trace.Attr{Key: "method", Value: r.Method})
		r = r.WithContext(ctx)
		var release func()
		defer func() {
			p := recover()
			if p != nil && p != http.ErrAbortHandler {
				// The daemon must outlive any single request. Once the
				// response has started (a stream panicked mid-body) no
				// status can be written; the client sees a truncated,
				// trailer-less body.
				s.metrics.panics.Inc()
				sp.SetAttr("panic", fmt.Sprint(p))
				s.log.ErrorContext(ctx, "handler panic",
					"route", pattern, "panic", p, "stack", string(debug.Stack()))
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError, fmt.Errorf("internal error: %v", p))
				}
			}
			if release != nil {
				release()
			}
			err := ctx.Err()
			sp.SetAttr("status", sw.status)
			if sw.status >= http.StatusInternalServerError {
				// Logged with the request context so the record carries
				// trace_id/span_id and can be joined with /debug/traces.
				s.log.ErrorContext(ctx, "request failed", "route", pattern, "status", sw.status)
			}
			sp.EndErr(err) // an expired deadline or a gone client: cancelled
			s.metrics.inFlight.Dec()
			hist.Observe(time.Since(start).Seconds())
			s.metrics.requests.With(pattern, strconv.Itoa(sw.status)).Inc()
			if errors.Is(err, context.DeadlineExceeded) {
				s.metrics.timeouts.Inc()
			}
			if p == http.ErrAbortHandler { // deliberate abort, not a fault
				panic(p)
			}
		}()
		if derr != nil {
			writeError(sw, http.StatusBadRequest, derr)
			return
		}
		if class != nil {
			var err error
			if release, err = class.Acquire(ctx); err != nil {
				s.shed(sw, r, class, pattern, err)
				return
			}
		}
		h(sw, r)
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"uptimeSeconds": time.Since(s.started).Seconds(),
		"engine":        s.study.EngineStats(),
		"scenarios":     len(s.reg.list()),
	})
}

// queryKey is the context key under which route stores a request's
// parsed URL query.
type queryKey struct{}

// query returns the request's URL query: nil when it has none, else the
// values route parsed once for the whole request.
func query(r *http.Request) url.Values {
	if r.URL.RawQuery == "" {
		return nil
	}
	if q, ok := r.Context().Value(queryKey{}).(url.Values); ok {
		return q
	}
	return r.URL.Query()
}

// decodeJSON strictly decodes one JSON object from a request body of at
// most maxBody bytes.
func decodeJSON(body io.Reader, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(body), maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	// Anything but whitespace after the object is an error. More alone
	// would pass a stray closing bracket ("{...}}" or "{...}]").
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("decoding request: trailing data after JSON object")
	}
	return nil
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		// The request's budget (-request-timeout or ?timeout_ms=) ran
		// out before the model solved.
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	}
	return http.StatusInternalServerError
}

// writeJSON writes v as one compact JSON object and a newline; readers
// who want it indented pipe it through jq.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
