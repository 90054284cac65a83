package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"redpatch"
)

const classicSpecJSON = `{"name":"base","tiers":[
	{"role":"dns","replicas":1},{"role":"web","replicas":2},
	{"role":"app","replicas":2},{"role":"db","replicas":1}]}`

func TestScenarioCRUD(t *testing.T) {
	h := testServer(t).handler()

	w := do(t, h, http.MethodPost, "/api/v2/scenarios", `{"name":"crud-weekly","config":{"intervalHours":168}}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("create status = %d: %s", w.Code, w.Body)
	}
	var created scenarioJSON
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	if created.Name != "crud-weekly" || created.Config.IntervalHours != 168 {
		t.Fatalf("created scenario = %+v", created)
	}

	if w = do(t, h, http.MethodPost, "/api/v2/scenarios", `{"name":"crud-weekly"}`); w.Code != http.StatusConflict {
		t.Fatalf("duplicate create status = %d", w.Code)
	}
	if w = do(t, h, http.MethodPost, "/api/v2/scenarios", `{"name":"no spaces allowed"}`); w.Code != http.StatusBadRequest {
		t.Fatalf("bad name status = %d", w.Code)
	}
	// An empty name is a validation failure, not a conflict with the
	// default scenario it would otherwise resolve to.
	if w = do(t, h, http.MethodPost, "/api/v2/scenarios", `{"name":""}`); w.Code != http.StatusBadRequest {
		t.Fatalf("empty name status = %d, want 400", w.Code)
	}

	w = do(t, h, http.MethodGet, "/api/v2/scenarios", "")
	if w.Code != http.StatusOK {
		t.Fatalf("list status = %d", w.Code)
	}
	var list struct {
		Scenarios []scenarioJSON `json:"scenarios"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, sc := range list.Scenarios {
		names[sc.Name] = true
	}
	if !names[defaultScenario] || !names["crud-weekly"] {
		t.Fatalf("list missing scenarios: %v", names)
	}

	if w = do(t, h, http.MethodDelete, "/api/v2/scenarios/crud-weekly", ""); w.Code != http.StatusNoContent {
		t.Fatalf("delete status = %d: %s", w.Code, w.Body)
	}
	if w = do(t, h, http.MethodDelete, "/api/v2/scenarios/crud-weekly", ""); w.Code != http.StatusNotFound {
		t.Fatalf("re-delete status = %d", w.Code)
	}
	if w = do(t, h, http.MethodDelete, "/api/v2/scenarios/default", ""); w.Code != http.StatusBadRequest {
		t.Fatalf("default delete status = %d", w.Code)
	}
}

// TestHeterogeneousSweepV2 is the acceptance sweep: a web tier with two
// stack variants returns a non-empty Pareto front over four designs.
func TestHeterogeneousSweepV2(t *testing.T) {
	h := testServer(t).handler()
	body := `{"tiers":[
		{"role":"dns","min":1,"max":1},
		{"role":"web","min":1,"max":2,"variants":["","webalt"]},
		{"role":"app","min":1,"max":1},
		{"role":"db","min":1,"max":1}]}`
	resp, err := sweepStream(h, body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Total != 4 || resp.Kept != 4 {
		t.Fatalf("total = %d, kept = %d, want 4/4", resp.Total, resp.Kept)
	}
	if len(resp.Pareto) == 0 {
		t.Fatal("empty Pareto front")
	}
	variants := make(map[string]bool)
	for _, r := range resp.Reports {
		for _, tier := range r.Spec.Tiers {
			if tier.Role == "web" {
				variants[tier.Variant] = true
			}
		}
	}
	if !variants[""] || !variants["webalt"] {
		t.Fatalf("sweep did not enumerate both stacks: %v", variants)
	}
}

// TestScenariosDivergeOnPolicy is the acceptance registry check: two
// scenarios with different policies must return different results for
// the same spec from one daemon process.
func TestScenariosDivergeOnPolicy(t *testing.T) {
	h := testServer(t).handler()
	if w := do(t, h, http.MethodPost, "/api/v2/scenarios", `{"name":"div-patch-all","config":{"patchAll":true}}`); w.Code != http.StatusCreated {
		t.Fatalf("create status = %d: %s", w.Code, w.Body)
	}
	// The daemon is shared by the package's tests and by repeated runs
	// (-count): leave it without the scenario.
	t.Cleanup(func() {
		if w := do(t, h, http.MethodDelete, "/api/v2/scenarios/div-patch-all", ""); w.Code != http.StatusNoContent {
			t.Errorf("delete status = %d: %s", w.Code, w.Body)
		}
	})
	get := func(scenario string) redpatch.DesignReport {
		t.Helper()
		body := `{"scenario":"` + scenario + `","spec":` + classicSpecJSON + `}`
		w := do(t, h, http.MethodPost, "/api/v2/evaluate", body)
		if w.Code != http.StatusOK {
			t.Fatalf("evaluate(%s) status = %d: %s", scenario, w.Code, w.Body)
		}
		var resp struct {
			Report redpatch.DesignReport `json:"report"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Report
	}
	def := get("")
	all := get("div-patch-all")
	if all.After.NoEV != 0 || all.After.ASP != 0 {
		t.Fatalf("patch-all scenario left an attack surface: %+v", all.After)
	}
	if def.After.NoEV == all.After.NoEV && def.After.ASP == all.After.ASP {
		t.Fatal("scenarios with different policies returned identical results")
	}
}

func TestRankPatchesEndpoint(t *testing.T) {
	h := testServer(t).handler()
	w := do(t, h, http.MethodPost, "/api/v2/rank-patches", `{"spec":`+classicSpecJSON+`}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Candidates []redpatch.PatchPriority `json:"candidates"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Candidates) != 9 {
		t.Fatalf("candidates = %d, want the 9 critical CVEs", len(resp.Candidates))
	}
	if resp.Candidates[0].CVE != "CVE-2016-3227" {
		t.Fatalf("top candidate = %s", resp.Candidates[0].CVE)
	}
}

func TestPlanCampaignEndpoint(t *testing.T) {
	h := testServer(t).handler()
	w := do(t, h, http.MethodPost, "/api/v2/plan-campaign", `{"role":"app","windowMinutes":35}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	var resp struct {
		Campaign redpatch.CampaignPlan `json:"campaign"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// The app server's 60-minute critical set cannot fit a 35-minute
	// window in one round.
	if len(resp.Campaign.Rounds) < 2 {
		t.Fatalf("rounds = %d, want a multi-round campaign", len(resp.Campaign.Rounds))
	}
	for _, round := range resp.Campaign.Rounds {
		if round.DowntimeMinutes > 35 {
			t.Fatalf("round exceeds the window: %+v", round)
		}
	}
}

func TestSweepStreamNDJSON(t *testing.T) {
	h := testServer(t).handler()
	body := `{"tiers":[
		{"role":"dns","min":1,"max":1},
		{"role":"web","min":1,"max":3},
		{"role":"app","min":1,"max":1},
		{"role":"db","min":1,"max":1}]}`
	req := httptest.NewRequest(http.MethodPost, "/api/v2/sweep/stream", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	var reports int
	var done struct {
		Done  bool `json:"done"`
		Total int  `json:"total"`
		Kept  int  `json:"kept"`
	}
	sc := bufio.NewScanner(w.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("non-JSON NDJSON line: %s", line)
		}
		switch {
		case probe["error"] != nil:
			t.Fatalf("stream error: %s", line)
		case probe["done"] != nil:
			if err := json.Unmarshal(line, &done); err != nil {
				t.Fatal(err)
			}
		default:
			reports++
			var rep redpatch.DesignReport
			if err := json.Unmarshal(line, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.COA <= 0 || rep.COA > 1 {
				t.Fatalf("implausible streamed report: %+v", rep)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !done.Done || done.Total != 3 || done.Kept != 3 || reports != 3 {
		t.Fatalf("stream = %d reports, trailer %+v; want 3 reports and done totals 3/3", reports, done)
	}
}

func TestV2RejectsBadRequests(t *testing.T) {
	study, err := redpatch.NewCaseStudyWithConfig(redpatch.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := mustServer(t, study, serverConfig{maxDesigns: 4096, maxReplicas: 16})
	h := s.handler()
	long := strings.Repeat(`{"role":"web","replicas":1},`, 9)
	type badRequest struct {
		path, body string
		// spec, when set, is the invalid spec of the body: the 400 must
		// carry its Validate message and come before admission.
		spec *redpatch.DesignSpec
	}
	cases := map[string]badRequest{
		"unknown scenario":   {path: "/api/v2/evaluate", body: `{"scenario":"nope","spec":` + classicSpecJSON + `}`},
		"replica cap":        {path: "/api/v2/evaluate", body: `{"spec":{"tiers":[{"role":"web","replicas":1000}]}}`},
		"tier cap":           {path: "/api/v2/evaluate", body: `{"spec":{"tiers":[` + long[:len(long)-1] + `]}}`},
		"unknown variant":    {path: "/api/v2/sweep/stream", body: `{"tiers":[{"role":"web","min":1,"max":1,"variants":["iis"]}]}`},
		"sweep size cap":     {path: "/api/v2/sweep/stream", body: `{"tiers":[{"role":"dns","min":1,"max":9},{"role":"web","min":1,"max":9},{"role":"app","min":1,"max":9},{"role":"db","min":1,"max":9}]}`},
		"stream bad json":    {path: "/api/v2/sweep/stream", body: `nope`},
		"stream shard":       {path: "/api/v2/sweep/stream", body: `{"tiers":[{"role":"web","min":1,"max":2}],"shard":{"index":0,"count":2}}`},
		"campaign no window": {path: "/api/v2/plan-campaign", body: `{"role":"web"}`},
		"campaign bad role":  {path: "/api/v2/plan-campaign", body: `{"role":"mainframe","windowMinutes":30}`},
	}
	// Every route that takes a design spec rejects each invalid one.
	// The key separator role once rendered the key of
	// [{x, dns, 1}, {dns, web, 1}].
	invalid := map[string]string{
		"no tiers":      `[]`,
		"unknown stack": `[{"role":"cache","replicas":1}]`,
		"zero replicas": `[{"role":"web","replicas":0}]`,
		"key separator": `[{"role":"x/dns:1;dns","variant":"web","replicas":1}]`,
	}
	routes := map[string]struct{ path, body, name string }{
		"evaluate":       {"/api/v2/evaluate", `{"spec":{"tiers":%s}}`, ""},
		"rank-patches":   {"/api/v2/rank-patches", `{"spec":{"tiers":%s}}`, ""},
		"rollout":        {"/api/v2/rollout/sweep", `{"spec":{"tiers":%s},"schedule":{"strategy":"rolling","steps":2}}`, ""},
		"fleet register": {"/api/v2/fleet/register", `{"systems":[{"id":"s1","role":"app","windowMinutes":60,"tiers":%s}]}`, "s1"},
	}
	for route, r := range routes {
		for name, tiers := range invalid {
			spec := redpatch.DesignSpec{Name: r.name}
			if err := json.Unmarshal([]byte(tiers), &spec.Tiers); err != nil {
				t.Fatal(err)
			}
			cases[route+" "+name] = badRequest{path: r.path, body: fmt.Sprintf(r.body, tiers), spec: &spec}
		}
	}
	for name, tc := range cases {
		admitted, stats := s.adm.evaluate.Stats().Admitted, study.EngineStats()
		w := do(t, h, http.MethodPost, tc.path, tc.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", name, w.Code, w.Body)
		}
		if tc.spec == nil {
			continue
		}
		var resp struct{ Error string }
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := tc.spec.Validate(); want == nil || !strings.Contains(resp.Error, want.Error()) {
			t.Errorf("%s: error %q does not carry Validate's %v", name, resp.Error, want)
		}
		if got := s.adm.evaluate.Stats().Admitted; got != admitted {
			t.Errorf("%s: the evaluate limiter admitted %d requests", name, got-admitted)
		}
		if got := study.EngineStats(); got != stats {
			t.Errorf("%s: engine stats moved: %+v, was %+v", name, got, stats)
		}
	}
}
