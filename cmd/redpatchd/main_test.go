package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"redpatch"

	"redpatch/internal/faultinject"
)

var (
	srvOnce sync.Once
	srv     *server
	srvErr  error
)

// testServer shares one daemon across tests: the engine cache is part of
// what the handlers are expected to exercise.
func testServer(t *testing.T) *server {
	t.Helper()
	srvOnce.Do(func() {
		var study *redpatch.CaseStudy
		study, srvErr = redpatch.NewCaseStudyWithConfig(redpatch.Config{Workers: 4})
		if srvErr != nil {
			return
		}
		srv, srvErr = newServer(study, serverConfig{maxDesigns: 4096, maxReplicas: 16})
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srv
}

// mustServer builds a fresh (non-shared) server for tests that assert
// on per-server state such as metrics counters or cache files.
func mustServer(t *testing.T, study *redpatch.CaseStudy, cfg serverConfig) *server {
	t.Helper()
	s, err := newServer(study, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestHealthz(t *testing.T) {
	h := testServer(t).handler()
	w := do(t, h, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var body struct {
		Status string               `json:"status"`
		Engine redpatch.EngineStats `json:"engine"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" {
		t.Fatalf("status = %q", body.Status)
	}
}

// TestReadyzGates: /readyz is 200 the moment construction returns —
// scenario registration and cache restore are synchronous — and 503
// draining once shutdown begins, while /healthz stays pure liveness
// throughout.
func TestReadyzGates(t *testing.T) {
	s := mustServer(t, newStudy(t), serverConfig{})
	h := s.handler()
	readyz := func(wantCode int, wantStatus string) {
		t.Helper()
		w := do(t, h, http.MethodGet, "/readyz", "")
		var body map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatalf("readyz body %q: %v", w.Body, err)
		}
		if w.Code != wantCode || len(body) != 1 || body["status"] != wantStatus {
			t.Fatalf("readyz = %d %s, want %d {\"status\":%q}", w.Code, w.Body, wantCode, wantStatus)
		}
		if w := do(t, h, http.MethodGet, "/healthz", ""); w.Code != http.StatusOK {
			t.Fatalf("healthz status = %d, want 200 (pure liveness)", w.Code)
		}
	}
	readyz(http.StatusOK, "ready")
	s.drain()
	readyz(http.StatusServiceUnavailable, "draining")
}

func TestParseChaosSite(t *testing.T) {
	for name, tc := range map[string]struct {
		in   string
		want chaosSiteSpec
		ok   bool
	}{
		"five fields": {in: " evaluate , 0.25,1, 50 ,0", ok: true, want: chaosSiteSpec{
			name: "evaluate",
			site: faultinject.Site{ErrProb: 0.25, LatencyProb: 1, Latency: 50 * time.Millisecond},
		}},
		"four fields":          {in: "evaluate,0,1,50"},
		"empty name":           {in: " ,0,1,50,0"},
		"negative probability": {in: "evaluate,-0.1,1,50,0"},
		"not a number":         {in: "evaluate,0,often,50,0"},
	} {
		got, err := parseChaosSite(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("%s: parseChaosSite(%q) error = %v, want ok=%v", name, tc.in, err, tc.ok)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: parseChaosSite(%q) = %+v, want %+v", name, tc.in, got, tc.want)
		}
	}
}

// d1111Body is the evaluate body of the smallest classic design.
const d1111Body = `{"spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":1},{"role":"app","replicas":1},{"role":"db","replicas":1}]}}`

// classicSweepBody is the sweep body over the classic four tiers, each
// at min..max replicas, with extra appended verbatim (bounds).
func classicSweepBody(min, max int, extra string) string {
	var tiers []string
	for _, role := range []string{"dns", "web", "app", "db"} {
		tiers = append(tiers, fmt.Sprintf(`{"role":%q,"min":%d,"max":%d}`, role, min, max))
	}
	return `{"tiers":[` + strings.Join(tiers, ",") + `]` + extra + `}`
}

// evaluateResponse is the wire shape of /api/v2/evaluate.
type evaluateResponse struct {
	Scenario string                `json:"scenario"`
	Report   redpatch.DesignReport `json:"report"`
}

func TestEvaluateEndpoint(t *testing.T) {
	h := testServer(t).handler()
	w := do(t, h, http.MethodPost, "/api/v2/evaluate", `{"spec":`+classicSpecJSON+`}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp evaluateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	rep := resp.Report
	if resp.Scenario != defaultScenario {
		t.Fatalf("scenario = %q", resp.Scenario)
	}
	if rep.Servers != 6 || rep.COA < 0.99 || rep.COA > 1 {
		t.Fatalf("implausible report: %+v", rep)
	}
	if rep.Description != "1 DNS + 2 WEB + 2 APP + 1 DB" {
		t.Fatalf("description = %q", rep.Description)
	}

	// A request without a name gets the canonical one.
	w = do(t, h, http.MethodPost, "/api/v2/evaluate",
		`{"spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":2},{"role":"db","replicas":1}]}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Report.Name != "1d2w2a1b" {
		t.Fatalf("name = %q", resp.Report.Name)
	}
}

// TestEvaluateRejectsBadRequests covers the decoder and range checks
// shared by every JSON endpoint; TestV2RejectsBadRequests covers the
// spec, scenario and cap checks.
func TestEvaluateRejectsBadRequests(t *testing.T) {
	h := testServer(t).handler()
	for name, tc := range map[string]struct {
		method, path, body string
		wantStatus         int
	}{
		"malformed json":         {http.MethodPost, "/api/v2/evaluate", `{"spec":`, http.StatusBadRequest},
		"unknown field":          {http.MethodPost, "/api/v2/evaluate", `{"specs":{}}`, http.StatusBadRequest},
		"trailing garbage":       {http.MethodPost, "/api/v2/evaluate", d1111Body + `{}`, http.StatusBadRequest},
		"trailing brace":         {http.MethodPost, "/api/v2/evaluate", d1111Body + `}`, http.StatusBadRequest},
		"trailing bracket":       {http.MethodPost, "/api/v2/evaluate", d1111Body + `]`, http.StatusBadRequest},
		"wrong type":             {http.MethodPost, "/api/v2/evaluate", `{"spec":{"tiers":[{"role":"dns","replicas":"one"}]}}`, http.StatusBadRequest},
		"huge sweep tier":        {http.MethodPost, "/api/v2/sweep/stream", `{"tiers":[{"role":"dns","min":4000,"max":4000}]}`, http.StatusBadRequest},
		"huge min only":          {http.MethodPost, "/api/v2/sweep/stream", `{"tiers":[{"role":"dns","min":100,"max":0}]}`, http.StatusBadRequest},
		"GET evaluate":           {http.MethodGet, "/api/v2/evaluate", ``, http.StatusMethodNotAllowed},
		"POST healthz":           {http.MethodPost, "/healthz", ``, http.StatusMethodNotAllowed},
		"sweep bad json":         {http.MethodPost, "/api/v2/sweep/stream", `[1,2]`, http.StatusBadRequest},
		"sweep not json":         {http.MethodPost, "/api/v2/sweep/stream", `nope`, http.StatusBadRequest},
		"sweep trailing brace":   {http.MethodPost, "/api/v2/sweep/stream", classicSweepBody(1, 1, "") + `}`, http.StatusBadRequest},
		"sweep trailing bracket": {http.MethodPost, "/api/v2/sweep/stream", classicSweepBody(1, 1, "") + `]`, http.StatusBadRequest},
		"sweep inverted":         {http.MethodPost, "/api/v2/sweep/stream", `{"tiers":[{"role":"dns","min":3,"max":1}]}`, http.StatusBadRequest},
		"sweep overflow": {http.MethodPost, "/api/v2/sweep/stream",
			classicSweepBody(1, 65536, ""), http.StatusBadRequest},
		"unknown endpoint":     {http.MethodGet, "/api/v2/nope", ``, http.StatusNotFound},
		"retired sweep route":  {http.MethodPost, "/api/v2/sweep", classicSweepBody(1, 1, ""), http.StatusNotFound},
		"retired pareto route": {http.MethodPost, "/api/v2/pareto", classicSweepBody(1, 1, ""), http.StatusNotFound},
		"negative range":       {http.MethodPost, "/api/v2/sweep/stream", `{"tiers":[{"role":"dns","min":-1,"max":2}]}`, http.StatusBadRequest},
		"sweep wrong shape":    {http.MethodPost, "/api/v2/sweep/stream", classicSweepBody(1, 1, `,"scatter":{"maxAsp":"high"}`), http.StatusBadRequest},
	} {
		w := do(t, h, tc.method, tc.path, tc.body)
		if w.Code != tc.wantStatus {
			t.Errorf("%s: status = %d, want %d (%s)", name, w.Code, tc.wantStatus, w.Body)
		}
	}
}

// sweepResponse is a /api/v2/sweep/stream body gathered up: the report
// lines in arrival order plus the done trailer's totals and front.
type sweepResponse struct {
	Total   int                     `json:"total"`
	Kept    int                     `json:"kept"`
	Reports []redpatch.DesignReport `json:"-"`
	Pareto  []redpatch.DesignReport `json:"pareto"`
}

// sweepStream posts body to /api/v2/sweep/stream and gathers the
// stream. A status other than 200, an error line, or a body without
// exactly one done trailer is an error.
func sweepStream(h http.Handler, body string) (sweepResponse, error) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v2/sweep/stream", strings.NewReader(body)))
	if w.Code != http.StatusOK {
		return sweepResponse{}, &httpError{w.Code, w.Body.String()}
	}
	var resp sweepResponse
	dones := 0
	for _, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		var probe map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			return resp, fmt.Errorf("line %q: %w", line, err)
		}
		switch {
		case probe["error"] != nil:
			return resp, fmt.Errorf("stream error: %s", line)
		case probe["progress"] != nil:
		case string(probe["done"]) == "true":
			dones++
			if err := json.Unmarshal([]byte(line), &resp); err != nil {
				return resp, err
			}
		default:
			var rep redpatch.DesignReport
			if err := json.Unmarshal([]byte(line), &rep); err != nil {
				return resp, err
			}
			resp.Reports = append(resp.Reports, rep)
		}
	}
	if dones != 1 {
		return resp, fmt.Errorf("%d done trailers, want 1", dones)
	}
	return resp, nil
}

// byName sorts reports by name: for classic designs of at most nine
// replicas per tier that is enumeration order.
func byName(reports []redpatch.DesignReport) []redpatch.DesignReport {
	slices.SortFunc(reports, func(a, b redpatch.DesignReport) int { return strings.Compare(a.Name, b.Name) })
	return reports
}

// TestSweepFullRangeConcurrently serves the full 1..4 per-tier space (256
// designs) from several concurrent requests and cross-checks every
// response against the serial facade, per the acceptance criteria.
func TestSweepFullRangeConcurrently(t *testing.T) {
	s := testServer(t)
	h := s.handler()

	var want []redpatch.DesignReport
	for dns := 1; dns <= 4; dns++ {
		for web := 1; web <= 4; web++ {
			for app := 1; app <= 4; app++ {
				for db := 1; db <= 4; db++ {
					r, err := s.study.EvaluateSpec(redpatch.ClassicSpec("", dns, web, app, db))
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, r)
				}
			}
		}
	}

	const clients = 4
	responses := make([]sweepResponse, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = sweepStream(h, classicSweepBody(1, 4, ""))
		}(i)
	}
	wg.Wait()
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		r := responses[i]
		if r.Total != 256 || r.Kept != 256 || len(r.Reports) != 256 {
			t.Fatalf("client %d: total=%d kept=%d reports=%d, want 256 each", i, r.Total, r.Kept, len(r.Reports))
		}
		if !reflect.DeepEqual(byName(r.Reports), want) {
			t.Fatalf("client %d: sweep reports differ from the serial enumeration", i)
		}
		if len(r.Pareto) == 0 {
			t.Fatalf("client %d: empty Pareto front", i)
		}
	}

	// A repeat sweep is all cache: zero new solves.
	before := s.study.EngineStats()
	if _, err := sweepStream(h, classicSweepBody(1, 4, "")); err != nil {
		t.Fatal(err)
	}
	after := s.study.EngineStats()
	if after.Solves != before.Solves {
		t.Fatalf("repeat sweep performed %d new solves", after.Solves-before.Solves)
	}
	if after.Hits < before.Hits+256 {
		t.Fatalf("repeat sweep recorded %d hits, want >= 256", after.Hits-before.Hits)
	}
}

func TestSweepWithBounds(t *testing.T) {
	h := testServer(t).handler()
	resp, err := sweepStream(h, classicSweepBody(1, 2, `,"scatter":{"maxAsp":0.2,"minCoa":0.9962}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Total != 16 {
		t.Fatalf("total = %d, want 16", resp.Total)
	}
	if resp.Kept == 0 || resp.Kept == 16 || resp.Kept != len(resp.Reports) {
		t.Fatalf("kept = %d of %d streamed, want a strict subset", resp.Kept, len(resp.Reports))
	}
	for _, r := range resp.Reports {
		if r.After.ASP > 0.2 || r.COA < 0.9962 {
			t.Fatalf("report %s violates the bounds", r.Name)
		}
	}
}

func TestSweepPerTierRanges(t *testing.T) {
	h := testServer(t).handler()
	resp, err := sweepStream(h,
		`{"tiers":[{"role":"dns","min":1,"max":1},{"role":"web","min":1,"max":3},{"role":"app","min":2,"max":2},{"role":"db","min":1,"max":1}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Total != 3 || len(resp.Reports) != 3 {
		t.Fatalf("total = %d, reports = %d, want 3", resp.Total, len(resp.Reports))
	}
	for i, name := range []string{"1d1w2a1b", "1d2w2a1b", "1d3w2a1b"} {
		if got := byName(resp.Reports)[i].Name; got != name {
			t.Fatalf("report %d = %q, want %q", i, got, name)
		}
	}
}

// TestParetoEndpoint checks the Pareto front the stream's done trailer
// carries.
func TestParetoEndpoint(t *testing.T) {
	resp, err := sweepStream(testServer(t).handler(), classicSweepBody(1, 2, ""))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Total != 16 || len(resp.Pareto) == 0 {
		t.Fatalf("total = %d, front = %d", resp.Total, len(resp.Pareto))
	}
	// The front must be undominated and sorted by ascending ASP.
	for i, r := range resp.Pareto {
		if i > 0 && resp.Pareto[i-1].After.ASP > r.After.ASP {
			t.Fatal("front not sorted by ASP")
		}
		for j, s := range resp.Pareto {
			if i == j {
				continue
			}
			if s.After.ASP <= r.After.ASP && s.COA >= r.COA &&
				(s.After.ASP < r.After.ASP || s.COA > r.COA) {
				t.Fatalf("front member %s dominated by %s", r.Name, s.Name)
			}
		}
	}
}

type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string {
	var b bytes.Buffer
	b.WriteString("unexpected status ")
	b.WriteString(http.StatusText(e.code))
	b.WriteString(": ")
	b.WriteString(e.body)
	return b.String()
}

// TestPprofOptIn: the profiling endpoints exist only behind the -pprof
// flag — they expose runtime internals and default off.
func TestPprofOptIn(t *testing.T) {
	off := testServer(t).handler()
	if w := do(t, off, http.MethodGet, "/debug/pprof/cmdline", ""); w.Code != http.StatusNotFound {
		t.Errorf("pprof disabled: status = %d, want 404", w.Code)
	}
	on := mustServer(t, testServer(t).study, serverConfig{pprof: true}).handler()
	if w := do(t, on, http.MethodGet, "/debug/pprof/cmdline", ""); w.Code != http.StatusOK {
		t.Errorf("pprof enabled: status = %d, want 200", w.Code)
	}
	if w := do(t, on, http.MethodGet, "/debug/pprof/", ""); w.Code != http.StatusOK {
		t.Errorf("pprof index: status = %d, want 200", w.Code)
	}
}

// TestHealthzSolverCounters: after at least one evaluation the engine
// block must report the factored-solver dispatch counters.
func TestHealthzSolverCounters(t *testing.T) {
	h := testServer(t).handler()
	if w := do(t, h, http.MethodPost, "/api/v2/evaluate",
		`{"spec":{"name":"c1","tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":1},{"role":"app","replicas":2},{"role":"db","replicas":1}]}}`); w.Code != http.StatusOK {
		t.Fatalf("evaluate status = %d: %s", w.Code, w.Body)
	}
	w := do(t, h, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var body struct {
		Engine redpatch.EngineStats `json:"engine"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Engine.FactoredSolves == 0 {
		t.Errorf("factoredSolves = 0 after an evaluation: %+v", body.Engine)
	}
	if strings.Contains(w.Body.String(), "srnSolves") {
		t.Errorf("engine stats still carry srnSolves: %s", w.Body.String())
	}
	if body.Engine.TierSolves == 0 || body.Engine.TierSolves > 4*body.Engine.FactoredSolves {
		t.Errorf("tierSolves = %d out of plausible range: %+v", body.Engine.TierSolves, body.Engine)
	}
}
