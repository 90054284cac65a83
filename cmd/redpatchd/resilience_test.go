package main

// Resilience tests: admission saturation and warm-bypass semantics,
// request-deadline propagation, panic recovery, NDJSON trailer
// contracts under injected faults, persistence retry/backoff, and the
// seeded chaos suite asserting the daemon stays correct and leak-free
// under a storm of injected solver errors, latency and panics.

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"redpatch"

	"redpatch/internal/faultinject"
)

// chaosStudy builds a case study wired to the given fault injector.
func chaosStudy(t *testing.T, inj *faultinject.Injector) *redpatch.CaseStudy {
	t.Helper()
	study, err := redpatch.NewCaseStudyWithConfig(redpatch.Config{Workers: 2, Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}
	return study
}

// waitCond polls cond with a generous deadline; loaded CI machines must
// not flake the admission races these tests stage.
func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitGoroutines waits for the goroutine count to settle back to the
// pre-request baseline, dumping all stacks on timeout.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines = %d, want <= %d\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// ndjsonLines splits a streamed body into its non-empty lines.
func ndjsonLines(t *testing.T, body string) []string {
	t.Helper()
	var out []string
	for _, ln := range strings.Split(body, "\n") {
		if strings.TrimSpace(ln) != "" {
			out = append(out, ln)
		}
	}
	if len(out) == 0 {
		t.Fatal("empty stream body")
	}
	return out
}

// TestAdmissionSaturation stages the acceptance scenario: with the
// evaluate class at concurrency 1 / queue 1 and the one worker held by
// a slow (injected-latency) solve, the next cold request fails fast
// with 429 and a Retry-After header, warm requests still bypass the
// limiter, the accepted requests complete, and /metrics reports the
// shed.
func TestAdmissionSaturation(t *testing.T) {
	inj := faultinject.New(1)
	s := mustServer(t, chaosStudy(t, inj), serverConfig{
		chaos:     inj,
		admission: admissionConfig{evaluate: classLimits{concurrency: 1, queue: 1}},
	})
	h := s.handler()

	// Warm one design before any latency is injected.
	const warm = `{"spec":{"name":"warm","tiers":[{"role":"web","replicas":4}]}}`
	if w := do(t, h, http.MethodPost, "/api/v2/evaluate", warm); w.Code != http.StatusOK {
		t.Fatalf("warmup status = %d: %s", w.Code, w.Body)
	}

	// On the idle daemon a warm evaluate answers from the memo without
	// touching the limiter: the admitted count stays at the warmup's.
	const admitted = `redpatchd_admission_admitted_total{class="evaluate"}`
	before := metricValue(t, scrape(t, h), admitted)
	if w := do(t, h, http.MethodPost, "/api/v2/evaluate", warm); w.Code != http.StatusOK {
		t.Fatalf("idle warm status = %d: %s", w.Code, w.Body)
	}
	if after := metricValue(t, scrape(t, h), admitted); after != before {
		t.Fatalf("a warm evaluate moved %s from %s to %s", admitted, before, after)
	}

	inj.Configure(redpatch.ChaosSiteEvaluate,
		faultinject.Site{LatencyProb: 1, Latency: 400 * time.Millisecond})

	// Two cold designs: the first takes the slot, the second the queue.
	type result struct {
		code int
		body string
	}
	resc := make(chan result, 2)
	for i := 1; i <= 2; i++ {
		body := fmt.Sprintf(`{"spec":{"tiers":[{"role":"web","replicas":%d}]}}`, i)
		go func() {
			req := httptest.NewRequest(http.MethodPost, "/api/v2/evaluate", strings.NewReader(body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			resc <- result{w.Code, w.Body.String()}
		}()
	}
	waitCond(t, "limiter saturation", func() bool {
		st := s.adm.evaluate.Stats()
		return st.InFlight == 1 && st.Waiting == 1
	})

	// Slot and queue both occupied: the next cold request is shed now,
	// not after a wait.
	w := do(t, h, http.MethodPost, "/api/v2/evaluate",
		`{"spec":{"tiers":[{"role":"web","replicas":3}]}}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d: %s", w.Code, w.Body)
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", w.Header().Get("Retry-After"))
	}

	// The warm design still answers from the cache through the bypass.
	if w := do(t, h, http.MethodPost, "/api/v2/evaluate", warm); w.Code != http.StatusOK {
		t.Fatalf("warm bypass status = %d: %s", w.Code, w.Body)
	}

	// Both accepted requests complete normally.
	for i := 0; i < 2; i++ {
		if r := <-resc; r.code != http.StatusOK {
			t.Fatalf("accepted request status = %d: %s", r.code, r.body)
		}
	}

	body := scrape(t, h)
	if v := metricValue(t, body, `redpatchd_admission_sheds_total{class="evaluate",reason="queue_full"}`); v != "1" {
		t.Fatalf("sheds counter = %s, want 1", v)
	}
}

// TestRequestTimeout: ?timeout_ms= flows as a context deadline through
// the engine; an exhausted budget answers 504 and bumps the timeout
// counter, and an unparsable value is a 400.
func TestRequestTimeout(t *testing.T) {
	inj := faultinject.New(2)
	inj.Configure(redpatch.ChaosSiteEvaluate,
		faultinject.Site{LatencyProb: 1, Latency: 2 * time.Second})
	s := mustServer(t, chaosStudy(t, inj), serverConfig{chaos: inj})
	h := s.handler()

	w := do(t, h, http.MethodPost, "/api/v2/evaluate?timeout_ms=50",
		`{"spec":{"tiers":[{"role":"web","replicas":1}]}}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out status = %d: %s", w.Code, w.Body)
	}
	if v := metricValue(t, scrape(t, h), "redpatchd_request_timeouts_total"); v != "1" {
		t.Fatalf("timeouts counter = %s, want 1", v)
	}

	w = do(t, h, http.MethodPost, "/api/v2/evaluate?timeout_ms=soon",
		`{"spec":{"tiers":[{"role":"web","replicas":1}]}}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad timeout_ms status = %d: %s", w.Code, w.Body)
	}

	// Values whose millisecond count overflows a Duration must never
	// lift the ceiling: one used to wrap negative (clearing the deadline
	// entirely), the other to a 448µs budget.
	const ceiling = 50 * time.Millisecond
	capped := mustServer(t, chaosStudy(t, inj), serverConfig{chaos: inj, requestTimeout: ceiling}).handler()
	for _, q := range []string{"9223372036855", "18446744073710"} {
		start := time.Now()
		w := do(t, capped, http.MethodPost, "/api/v2/evaluate?timeout_ms="+q,
			`{"spec":{"tiers":[{"role":"web","replicas":1}]}}`)
		if w.Code != http.StatusGatewayTimeout {
			t.Errorf("timeout_ms=%s: status = %d, want the ceiling's 504: %s", q, w.Code, w.Body)
		}
		if el := time.Since(start); el < ceiling {
			t.Errorf("timeout_ms=%s: answered after %v, before the %v ceiling", q, el, ceiling)
		}
	}
}

// FuzzDeadline: whatever ?timeout_ms= says, the budget is an error (a
// 400) or a duration that never exceeds a positive -request-timeout
// ceiling and is never negative.
func FuzzDeadline(f *testing.F) {
	for _, q := range []string{"", "1", "0", "-5", "soon",
		"9223372036855", "18446744073710",
		"9223372036854775807", "99999999999999999999"} {
		for _, ceiling := range []time.Duration{50 * time.Millisecond, 0, -1} {
			f.Add(q, int64(ceiling))
		}
	}
	f.Fuzz(func(t *testing.T, q string, ceiling int64) {
		s := &server{requestTimeout: time.Duration(ceiling)}
		r := httptest.NewRequest(http.MethodGet, "/?"+url.Values{"timeout_ms": {q}}.Encode(), nil)
		d, err := s.deadline(r)
		switch {
		case err != nil:
		case ceiling > 0 && (d <= 0 || d > time.Duration(ceiling)):
			t.Fatalf("timeout_ms=%q under a %v ceiling: budget %v", q, time.Duration(ceiling), d)
		case d < 0:
			t.Fatalf("timeout_ms=%q with no ceiling: budget %v", q, d)
		}
	})
}

// TestServerRequestTimeout: the -request-timeout ceiling applies without
// any per-request override.
func TestServerRequestTimeout(t *testing.T) {
	inj := faultinject.New(2)
	inj.Configure(redpatch.ChaosSiteEvaluate,
		faultinject.Site{LatencyProb: 1, Latency: 2 * time.Second})
	s := mustServer(t, chaosStudy(t, inj), serverConfig{
		chaos:          inj,
		requestTimeout: 50 * time.Millisecond,
	})
	w := do(t, s.handler(), http.MethodPost, "/api/v2/evaluate",
		`{"spec":{"tiers":[{"role":"web","replicas":1}]}}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
}

// TestPanicRecovery: an injected handler panic becomes a 500 with a
// JSON error body, the panic counter moves, and the daemon keeps
// serving — the same route succeeds once the site is turned off.
func TestPanicRecovery(t *testing.T) {
	inj := faultinject.New(3)
	inj.Configure("http.evaluate", faultinject.Site{PanicProb: 1})
	s := mustServer(t, chaosStudy(t, inj), serverConfig{chaos: inj})
	h := s.handler()

	const body = `{"spec":{"tiers":[{"role":"web","replicas":1}]}}`
	w := do(t, h, http.MethodPost, "/api/v2/evaluate", body)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicked status = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || !strings.Contains(resp.Error, "injected panic") {
		t.Fatalf("panicked body = %s (unmarshal err %v)", w.Body, err)
	}
	if v := metricValue(t, scrape(t, h), "redpatchd_handler_panics_total"); v != "1" {
		t.Fatalf("panics counter = %s, want 1", v)
	}

	inj.Configure("http.evaluate", faultinject.Site{})
	if w := do(t, h, http.MethodPost, "/api/v2/evaluate", body); w.Code != http.StatusOK {
		t.Fatalf("post-recovery status = %d: %s", w.Code, w.Body)
	}
}

// TestSweepStreamBudgetTrailer: a request deadline expiring mid-sweep
// ends the NDJSON stream with an explicit {"error":...,"reason":
// "budget_exhausted"} trailer, never a silent truncation.
func TestSweepStreamBudgetTrailer(t *testing.T) {
	inj := faultinject.New(4)
	inj.Configure(redpatch.ChaosSiteEvaluate,
		faultinject.Site{LatencyProb: 1, Latency: 100 * time.Millisecond})
	s := mustServer(t, chaosStudy(t, inj), serverConfig{chaos: inj})
	h := s.handler()

	// Six designs at >= 100ms each on two workers cannot finish inside
	// 150ms; the deadline fires mid-stream.
	w := do(t, h, http.MethodPost, "/api/v2/sweep/stream?timeout_ms=150",
		`{"tiers":[{"role":"web","min":1,"max":6}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("stream status = %d: %s", w.Code, w.Body)
	}
	lines := ndjsonLines(t, w.Body.String())
	var trailer struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &trailer); err != nil {
		t.Fatalf("trailer line %q: %v", last, err)
	}
	if trailer.Error == "" || trailer.Reason != "budget_exhausted" {
		t.Fatalf("trailer = %+v, want budget_exhausted error", trailer)
	}
}

// TestFleetSimulateMidStreamErrorNoLeak: an error injected into the
// simulate stream after the plan header terminates the stream with an
// explicit error trailer and leaks no goroutines.
func TestFleetSimulateMidStreamErrorNoLeak(t *testing.T) {
	inj := faultinject.New(5)
	s := mustServer(t, chaosStudy(t, inj), serverConfig{chaos: inj})
	h := s.handler()

	w := do(t, h, http.MethodPost, "/api/v2/fleet/register",
		`{"systems":[`+fleetSystemA+`,`+fleetSystemB+`]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("register status = %d: %s", w.Code, w.Body)
	}

	inj.Configure("fleet.window", faultinject.Site{ErrProb: 1})
	before := runtime.NumGoroutine()

	w = do(t, h, http.MethodPost, "/api/v2/fleet/simulate", `{"seed":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("simulate status = %d: %s", w.Code, w.Body)
	}
	lines := ndjsonLines(t, w.Body.String())
	if !strings.Contains(lines[0], `"plan":true`) {
		t.Fatalf("first line = %q, want plan header", lines[0])
	}
	var trailer struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &trailer); err != nil {
		t.Fatalf("trailer line %q: %v", last, err)
	}
	if trailer.Error == "" || trailer.Reason != "internal" {
		t.Fatalf("trailer = %+v, want internal error", trailer)
	}
	waitGoroutines(t, before)
}

// TestChaosSuite is the seeded chaos run: concurrent mixed traffic
// under 10% injected solver errors, injected latency and a panic site.
// Every response must be a complete JSON object (a 200 always carries a
// report — no partial-silence successes), every stream must end in an
// explicit trailer, the fault counters must be visible in /metrics, no
// goroutines may leak, and turning the sites off must restore a fully
// healthy daemon.
func TestChaosSuite(t *testing.T) {
	inj := faultinject.New(42)
	inj.Configure(redpatch.ChaosSiteEvaluate, faultinject.Site{
		ErrProb:     0.1,
		LatencyProb: 0.3,
		Latency:     time.Millisecond,
	})
	inj.Configure("http.evaluate", faultinject.Site{PanicProb: 0.05})
	s := mustServer(t, chaosStudy(t, inj), serverConfig{chaos: inj})
	h := s.handler()
	before := runtime.NumGoroutine()

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	faults := make(chan string, workers*perWorker+workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				body := fmt.Sprintf(
					`{"spec":{"tiers":[{"role":"web","replicas":%d},{"role":"app","replicas":%d}]}}`,
					i%4+1, g+1)
				req := httptest.NewRequest(http.MethodPost, "/api/v2/evaluate", strings.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				var resp map[string]any
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					faults <- fmt.Sprintf("status %d: non-JSON body %q", w.Code, w.Body.String())
					continue
				}
				switch w.Code {
				case http.StatusOK:
					if resp["report"] == nil {
						faults <- fmt.Sprintf("200 without report: %s", w.Body)
					}
				case http.StatusInternalServerError:
					if resp["error"] == nil {
						faults <- fmt.Sprintf("500 without error: %s", w.Body)
					}
				default:
					faults <- fmt.Sprintf("unexpected status %d: %s", w.Code, w.Body)
				}
			}
			// One sweep stream per worker rides along: whatever the
			// injected faults do, the stream must end in an explicit done
			// or error line and every line must be valid JSON.
			req := httptest.NewRequest(http.MethodPost, "/api/v2/sweep/stream",
				strings.NewReader(fmt.Sprintf(`{"tiers":[{"role":"web","min":1,"max":4},{"role":"db","min":%d,"max":%d}]}`, g+1, g+1)))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
			for _, ln := range lines {
				if !json.Valid([]byte(ln)) {
					faults <- fmt.Sprintf("stream emitted invalid JSON line %q", ln)
				}
			}
			last := lines[len(lines)-1]
			if !strings.Contains(last, `"done":true`) && !strings.Contains(last, `"error"`) {
				faults <- fmt.Sprintf("stream ended without trailer: %q", last)
			}
		}(g)
	}
	wg.Wait()
	close(faults)
	for f := range faults {
		t.Error(f)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Force one deterministic panic so the counter assertion cannot
	// depend on the storm's draw sequence.
	inj.Configure("http.evaluate", faultinject.Site{PanicProb: 1})
	if w := do(t, h, http.MethodPost, "/api/v2/evaluate",
		`{"spec":{"tiers":[{"role":"db","replicas":16}]}}`); w.Code != http.StatusInternalServerError {
		t.Fatalf("forced panic status = %d: %s", w.Code, w.Body)
	}

	body := scrape(t, h)
	if v, err := strconv.ParseFloat(metricValue(t, body, "redpatchd_handler_panics_total"), 64); err != nil || v < 1 {
		t.Fatalf("panics counter = %q, want >= 1", metricValue(t, body, "redpatchd_handler_panics_total"))
	}
	metricValue(t, body, "redpatchd_request_timeouts_total") // series must exist

	// Recovery: all sites off, traffic must be fully healthy again and
	// the goroutine count back at the baseline.
	inj.Configure(redpatch.ChaosSiteEvaluate, faultinject.Site{})
	inj.Configure("http.evaluate", faultinject.Site{})
	for i := 0; i < 10; i++ {
		body := fmt.Sprintf(`{"spec":{"tiers":[{"role":"web","replicas":%d},{"role":"app","replicas":1}]}}`, i%4+1)
		if w := do(t, h, http.MethodPost, "/api/v2/evaluate", body); w.Code != http.StatusOK {
			t.Fatalf("post-recovery request %d status = %d: %s", i, w.Code, w.Body)
		}
	}
	waitGoroutines(t, before)
}

// levelCounter counts slog records by level, for asserting the
// log-once-per-outage contract.
type levelCounter struct {
	mu     sync.Mutex
	counts map[slog.Level]int
}

func newLevelCounter() *levelCounter {
	return &levelCounter{counts: make(map[slog.Level]int)}
}

func (c *levelCounter) Enabled(context.Context, slog.Level) bool { return true }
func (c *levelCounter) Handle(_ context.Context, r slog.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counts[r.Level]++
	return nil
}
func (c *levelCounter) WithAttrs([]slog.Attr) slog.Handler { return c }
func (c *levelCounter) WithGroup(string) slog.Handler      { return c }
func (c *levelCounter) count(l slog.Level) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[l]
}

// TestPersistRetryBackoff: failed cache flushes log Error exactly once
// per outage, the flush loop retries with backoff bumping
// redpatchd_persist_retries_total, and the first successful write after
// the outage recovers cleanly.
func TestPersistRetryBackoff(t *testing.T) {
	inj := faultinject.New(6)
	inj.Configure("persist", faultinject.Site{ErrProb: 1})
	lc := newLevelCounter()
	s := mustServer(t, newStudy(t), serverConfig{
		cacheDir: t.TempDir(),
		logger:   slog.New(lc),
		chaos:    inj,
	})
	h := s.handler()

	// Dirty the cache so dumps actually attempt a write.
	if w := do(t, h, http.MethodPost, "/api/v2/evaluate", d1111Body); w.Code != http.StatusOK {
		t.Fatalf("evaluate status = %d: %s", w.Code, w.Body)
	}
	if s.dumpCaches() {
		t.Fatal("dumpCaches succeeded under injected persist failure")
	}
	if s.dumpCaches() {
		t.Fatal("second dumpCaches succeeded under injected persist failure")
	}
	if n := lc.count(slog.LevelError); n != 1 {
		t.Fatalf("outage logged %d Error records, want exactly 1", n)
	}

	// The flush loop keeps retrying with backoff, counting each retry.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		s.flushLoop(ctx, 5*time.Millisecond)
		close(done)
	}()
	waitCond(t, "persist retries", func() bool {
		v, _ := strconv.ParseFloat(metricValue(t, scrape(t, h), "redpatchd_persist_retries_total"), 64)
		return v >= 3
	})

	// Heal the disk: the next attempt succeeds, logs the recovery, and
	// the Error count stays at one.
	inj.Configure("persist", faultinject.Site{})
	waitCond(t, "flush recovery", func() bool {
		v, _ := strconv.ParseFloat(metricValue(t, scrape(t, h), "redpatchd_cache_flushes_total"), 64)
		return v >= 1
	})
	cancel()
	<-done
	if n := lc.count(slog.LevelError); n != 1 {
		t.Fatalf("recovered outage logged %d Error records, want exactly 1", n)
	}
}

// TestPersistBackoffBounds: the persistence retry delay is full jitter
// — strictly positive, never above min(1s<<(n-1), interval) — rather
// than a deterministic ladder that retries a shared disk in lockstep.
func TestPersistBackoffBounds(t *testing.T) {
	const interval = 10 * time.Second
	for retries := 1; retries <= 12; retries++ {
		upper := time.Second << min(retries-1, 20)
		if upper > interval {
			upper = interval
		}
		for i := 0; i < 200; i++ {
			d := persistBackoff(retries, interval)
			if d <= 0 || d > upper {
				t.Fatalf("retry %d: delay %v outside (0, %v]", retries, d, upper)
			}
		}
	}
}
