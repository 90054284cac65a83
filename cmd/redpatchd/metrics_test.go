package main

import (
	"net/http"
	"strings"
	"testing"

	"redpatch"
)

// newStudy builds a fresh case study so per-server counter assertions
// never see another test's traffic.
func newStudy(t *testing.T) *redpatch.CaseStudy {
	t.Helper()
	study, err := redpatch.NewCaseStudyWithConfig(redpatch.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return study
}

// scrape fetches /metrics off a handler and returns the exposition
// body.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	w := do(t, h, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	return w.Body.String()
}

// metricValue extracts one sample line's value, failing when the exact
// series is absent.
func metricValue(t *testing.T, body, series string) string {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	t.Fatalf("series %q not in exposition:\n%s", series, body)
	return ""
}

// TestMetricsEndpoint: requests are counted per route pattern and
// status code, latencies land in the per-route histogram, and the
// engine counters are exported per scenario.
func TestMetricsEndpoint(t *testing.T) {
	study := newStudy(t)
	h := mustServer(t, study, serverConfig{}).handler()

	if w := do(t, h, http.MethodPost, "/api/v2/evaluate", d1111Body); w.Code != http.StatusOK {
		t.Fatalf("evaluate status = %d: %s", w.Code, w.Body)
	}
	if w := do(t, h, http.MethodPost, "/api/v2/evaluate", d1111Body); w.Code != http.StatusOK {
		t.Fatalf("repeat evaluate status = %d: %s", w.Code, w.Body)
	}
	if w := do(t, h, http.MethodPost, "/api/v2/evaluate", `{"spec":{"tiers":[{"role":"dns","replicas":0}]}}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad evaluate status = %d", w.Code)
	}
	if w := do(t, h, http.MethodGet, "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", w.Code)
	}

	body := scrape(t, h)
	for series, want := range map[string]string{
		`redpatchd_http_requests_total{route="POST /api/v2/evaluate",code="200"}`:      "2",
		`redpatchd_http_requests_total{route="POST /api/v2/evaluate",code="400"}`:      "1",
		`redpatchd_http_requests_total{route="GET /healthz",code="200"}`:               "1",
		`redpatchd_http_request_duration_seconds_count{route="POST /api/v2/evaluate"}`: "3",
		`redpatchd_engine_solves_total{scenario="default"}`:                            "1",
		`redpatchd_engine_cache_hits_total{scenario="default"}`:                        "1",
		`redpatchd_engine_cache_entries{scenario="default"}`:                           "1",
		`redpatchd_scenarios`: "1",
		// The scrape itself is the one in-flight request.
		`redpatchd_http_in_flight_requests`: "1",
	} {
		if got := metricValue(t, body, series); got != want {
			t.Errorf("%s = %s, want %s", series, got, want)
		}
	}
	// The solver counters ride along: one factored solve (there is no
	// SRN solve family any more), and the security axis served by the two factored (quotient) models
	// of the design's unpatched and fully patched endpoints.
	if got := metricValue(t, body, `redpatchd_engine_factored_solves_total{scenario="default"}`); got != "1" {
		t.Errorf("factored solves = %s, want 1", got)
	}
	if strings.Contains(body, "redpatchd_engine_srn_solves_total") {
		t.Error("/metrics still exports redpatchd_engine_srn_solves_total")
	}
	if got := metricValue(t, body, `redpatchd_engine_security_factored_total{scenario="default"}`); got != "1" {
		t.Errorf("security factored = %s, want 1", got)
	}
	if got := metricValue(t, body, `redpatchd_engine_security_solves_total{scenario="default"}`); got != "2" {
		t.Errorf("security solves = %s, want 2", got)
	}
	if got := metricValue(t, body, `redpatchd_engine_security_factor_hits_total{scenario="default"}`); got != "0" {
		t.Errorf("security factor hits = %s, want 0", got)
	}
	// Scraping /metrics is itself instrumented.
	body = scrape(t, h)
	if got := metricValue(t, body, `redpatchd_http_requests_total{route="GET /metrics",code="200"}`); got != "1" {
		t.Errorf("metrics route count = %s, want 1", got)
	}
}

// TestMetricsPerScenario: registering a scenario adds a second label
// value to every engine family.
func TestMetricsPerScenario(t *testing.T) {
	h := mustServer(t, newStudy(t), serverConfig{}).handler()
	if w := do(t, h, http.MethodPost, "/api/v2/scenarios",
		`{"name":"patch-all","config":{"patchAll":true}}`); w.Code != http.StatusCreated {
		t.Fatalf("scenario create status = %d: %s", w.Code, w.Body)
	}
	if w := do(t, h, http.MethodPost, "/api/v2/evaluate",
		`{"scenario":"patch-all","spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":1},{"role":"app","replicas":1},{"role":"db","replicas":1}]}}`); w.Code != http.StatusOK {
		t.Fatalf("scenario evaluate status = %d: %s", w.Code, w.Body)
	}
	body := scrape(t, h)
	if got := metricValue(t, body, `redpatchd_engine_solves_total{scenario="patch-all"}`); got != "1" {
		t.Errorf("patch-all solves = %s, want 1", got)
	}
	if got := metricValue(t, body, `redpatchd_engine_solves_total{scenario="default"}`); got != "0" {
		t.Errorf("default solves = %s, want 0", got)
	}
	if got := metricValue(t, body, `redpatchd_scenarios`); got != "2" {
		t.Errorf("scenarios = %s, want 2", got)
	}
}

// TestStreamStillFlushesUnderMiddleware: the statusWriter must keep
// http.Flusher working for the NDJSON streaming endpoint.
func TestStreamStillFlushesUnderMiddleware(t *testing.T) {
	h := mustServer(t, newStudy(t), serverConfig{}).handler()
	w := do(t, h, http.MethodPost, "/api/v2/sweep/stream",
		`{"tiers":[{"role":"dns","min":1,"max":1},{"role":"web","min":1,"max":2},{"role":"app","min":1,"max":1},{"role":"db","min":1,"max":1}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("stream status = %d: %s", w.Code, w.Body)
	}
	if !w.Flushed {
		t.Fatal("stream response was never flushed through the middleware")
	}
	if !strings.Contains(w.Body.String(), `"done":true`) {
		t.Fatalf("stream missing trailer:\n%s", w.Body)
	}
	body := scrape(t, h)
	if got := metricValue(t, body, `redpatchd_http_requests_total{route="POST /api/v2/sweep/stream",code="200"}`); got != "1" {
		t.Errorf("stream route count = %s, want 1", got)
	}
}
