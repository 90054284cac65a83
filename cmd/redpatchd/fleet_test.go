package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

const fleetSystemA = `{
	"id":"prod-a","role":"app","priority":1.5,"windowMinutes":60,
	"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},
	         {"role":"app","replicas":2},{"role":"db","replicas":1}]}`

// fleetSystemB's 35-minute window splits the app campaign over several
// monthly cycles, so its 0.1-hour compliance deadline is unmeetable.
const fleetSystemB = `{
	"id":"prod-b","role":"app","windowMinutes":35,"deadlineHours":0.1,
	"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},
	         {"role":"app","replicas":2},{"role":"db","replicas":1}]}`

// TestFleetEndpoints drives the registry surface end to end: register,
// list, plan, metrics, delete.
func TestFleetEndpoints(t *testing.T) {
	s := mustServer(t, newStudy(t), serverConfig{})
	h := s.handler()

	w := do(t, h, http.MethodPost, "/api/v2/fleet/register",
		`{"systems":[`+fleetSystemA+`,`+fleetSystemB+`]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("register status = %d: %s", w.Code, w.Body)
	}
	var reg struct {
		Registered int `json:"registered"`
		Fleet      int `json:"fleet"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Registered != 2 || reg.Fleet != 2 {
		t.Fatalf("register response = %+v, want 2/2", reg)
	}

	w = do(t, h, http.MethodGet, "/api/v2/fleet/systems", "")
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"prod-a"`) {
		t.Fatalf("list status = %d: %s", w.Code, w.Body)
	}

	w = do(t, h, http.MethodPost, "/api/v2/fleet/plan", `{"maxConcurrent":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("plan status = %d: %s", w.Code, w.Body)
	}
	var planResp struct {
		Plan struct {
			Systems []struct {
				System struct {
					ID string `json:"id"`
				} `json:"system"`
			} `json:"systems"`
			Windows []struct {
				SystemID   string  `json:"systemId"`
				StartHours float64 `json:"startHours"`
			} `json:"windows"`
			DeadlineAtRisk []string `json:"deadlineAtRisk"`
		} `json:"plan"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &planResp); err != nil {
		t.Fatal(err)
	}
	if len(planResp.Plan.Systems) != 2 || len(planResp.Plan.Windows) == 0 {
		t.Fatalf("plan = %+v, want 2 systems with windows", planResp.Plan)
	}
	if len(planResp.Plan.DeadlineAtRisk) != 1 || planResp.Plan.DeadlineAtRisk[0] != "prod-b" {
		t.Fatalf("deadlineAtRisk = %v, want [prod-b]", planResp.Plan.DeadlineAtRisk)
	}

	body := scrape(t, h)
	if got := metricValue(t, body, "redpatchd_fleet_systems"); got != "2" {
		t.Errorf("fleet gauge = %s, want 2", got)
	}
	if got := metricValue(t, body, "redpatchd_fleet_plans_total"); got != "1" {
		t.Errorf("plans counter = %s, want 1", got)
	}
	if got := metricValue(t, body, "redpatchd_fleet_deadline_at_risk"); got != "1" {
		t.Errorf("deadline gauge = %s, want 1", got)
	}

	// Planning a named subset works; an unknown ID is a request fault.
	if w = do(t, h, http.MethodPost, "/api/v2/fleet/plan", `{"systemIds":["prod-a"]}`); w.Code != http.StatusOK {
		t.Fatalf("subset plan status = %d: %s", w.Code, w.Body)
	}
	if w = do(t, h, http.MethodPost, "/api/v2/fleet/plan", `{"systemIds":["ghost"]}`); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown-ID plan status = %d", w.Code)
	}

	if w = do(t, h, http.MethodDelete, "/api/v2/fleet/systems/prod-b", ""); w.Code != http.StatusNoContent {
		t.Fatalf("delete status = %d: %s", w.Code, w.Body)
	}
	if w = do(t, h, http.MethodDelete, "/api/v2/fleet/systems/prod-b", ""); w.Code != http.StatusNotFound {
		t.Fatalf("re-delete status = %d", w.Code)
	}
	if got := metricValue(t, scrape(t, h), "redpatchd_fleet_systems"); got != "1" {
		t.Errorf("fleet gauge after delete = %s, want 1", got)
	}
}

// invalidFleetSystems are well-formed systems whose design or campaign
// role no evaluation accepts: a tier on the unknown stack "foo", a key
// separator in a tier role whose variant is catalogued, and the campaign
// role "nosuch".
var invalidFleetSystems = map[string]string{
	"unknown stack": `{"id":"bad","role":"app","windowMinutes":60,
		"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2,"variant":"foo"},{"role":"app","replicas":1}]}`,
	"separator in role": `{"id":"bad","role":"app","windowMinutes":60,
		"tiers":[{"role":"dns","replicas":1},{"role":"web;x","replicas":2,"variant":"web"},{"role":"app","replicas":1}]}`,
	"unknown campaign role": `{"id":"bad","role":"nosuch","windowMinutes":60,
		"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":1}]}`,
}

// TestFleetRegisterRejects pins the request-validation surface: bad
// systems, unknown scenarios, over-cap designs and designs or campaign
// roles no evaluation accepts must not register.
func TestFleetRegisterRejects(t *testing.T) {
	s := mustServer(t, newStudy(t), serverConfig{maxReplicas: 4})
	h := s.handler()
	bodies := map[string]string{
		"empty":     `{"systems":[]}`,
		"no window": `{"systems":[{"id":"x","role":"app","tiers":[{"role":"app","replicas":1}]}]}`,
		"bad scenario": `{"systems":[{"id":"x","role":"app","windowMinutes":60,"scenario":"ghost",
			"tiers":[{"role":"app","replicas":1}]}]}`,
		"over cap": `{"systems":[{"id":"x","role":"app","windowMinutes":60,
			"tiers":[{"role":"app","replicas":99}]}]}`,
	}
	for name, sys := range invalidFleetSystems {
		bodies[name] = `{"systems":[` + sys + `]}`
	}
	for name, body := range bodies {
		if w := do(t, h, http.MethodPost, "/api/v2/fleet/register", body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, w.Code)
		}
	}
	// A batch with one bad system registers nothing.
	w := do(t, h, http.MethodPost, "/api/v2/fleet/register",
		`{"systems":[`+fleetSystemA+`,{"id":"","role":"app","windowMinutes":60,"tiers":[{"role":"app","replicas":1}]}]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("half-bad batch status = %d", w.Code)
	}
	if s.fleetReg.Len() != 0 {
		t.Fatalf("half-bad batch registered %d systems", s.fleetReg.Len())
	}
}

// TestFleetSimulateStream: injected failures must show up in the NDJSON
// stream as rollback windows with re-queued CVEs, the fleet residual
// must never increase over the stream, and the executed-window counter
// must split by outcome.
func TestFleetSimulateStream(t *testing.T) {
	s := mustServer(t, newStudy(t), serverConfig{})
	h := s.handler()
	failing := strings.Replace(fleetSystemA, `"windowMinutes":60`,
		`"windowMinutes":60,"successProbability":0.001,"rollbackMinutes":10`, 1)
	if w := do(t, h, http.MethodPost, "/api/v2/fleet/register", `{"systems":[`+failing+`]}`); w.Code != http.StatusOK {
		t.Fatalf("register status = %d: %s", w.Code, w.Body)
	}
	w := do(t, h, http.MethodPost, "/api/v2/fleet/simulate", `{"seed":7,"maxAttempts":2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("simulate status = %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("stream has %d lines: %s", len(lines), w.Body)
	}
	var header struct {
		Plan    bool `json:"plan"`
		Windows int  `json:"windows"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil || !header.Plan || header.Windows == 0 {
		t.Fatalf("header = %s (err %v)", lines[0], err)
	}
	var trailer struct {
		Done    bool `json:"done"`
		Summary struct {
			Windows    int `json:"windows"`
			RolledBack int `json:"rolledBack"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil || !trailer.Done {
		t.Fatalf("trailer = %s (err %v)", lines[len(lines)-1], err)
	}
	// A "deferred" outcome is the rollback that exhausted the round's
	// attempts: the summary counts it among the rolled-back windows.
	rollbacks, last := 0, 1.0
	for _, line := range lines[1 : len(lines)-1] {
		var ev struct {
			Outcome      string   `json:"outcome"`
			Requeued     []string `json:"requeued"`
			DeferredCVEs []string `json:"deferredCves"`
			ResidualASP  float64  `json:"residualAsp"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event %s: %v", line, err)
		}
		if ev.ResidualASP > last {
			t.Errorf("fleet residual grew: %v -> %v", last, ev.ResidualASP)
		}
		last = ev.ResidualASP
		switch ev.Outcome {
		case "rolledBack":
			rollbacks++
			if len(ev.Requeued) == 0 {
				t.Errorf("rollback event without requeued CVEs: %s", line)
			}
		case "deferred":
			rollbacks++
			if len(ev.DeferredCVEs) == 0 {
				t.Errorf("deferred event without deferred CVEs: %s", line)
			}
		}
	}
	if rollbacks == 0 || trailer.Summary.RolledBack != rollbacks {
		t.Fatalf("rollbacks = %d in stream, %d in summary, want > 0 and equal",
			rollbacks, trailer.Summary.RolledBack)
	}
	body := scrape(t, h)
	if got := metricValue(t, body, `redpatchd_fleet_windows_executed_total{outcome="rolledBack"}`); got == "0" {
		t.Errorf("rolledBack counter = %s", got)
	}
	if got := metricValue(t, body, "redpatchd_fleet_simulations_total"); got != "1" {
		t.Errorf("simulations counter = %s, want 1", got)
	}
}

// TestFleetPersistsAcrossRestart: with -cache-dir, registered systems
// survive a daemon restart alongside the warmed engine caches.
func TestFleetPersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	first := mustServer(t, newStudy(t), serverConfig{cacheDir: dir})
	h := first.handler()
	if w := do(t, h, http.MethodPost, "/api/v2/fleet/register", `{"systems":[`+fleetSystemA+`]}`); w.Code != http.StatusOK {
		t.Fatalf("register status = %d: %s", w.Code, w.Body)
	}
	first.dumpCaches()
	if _, err := os.Stat(filepath.Join(dir, "fleet.json")); err != nil {
		t.Fatalf("no fleet dump written: %v", err)
	}

	second := mustServer(t, newStudy(t), serverConfig{cacheDir: dir})
	h2 := second.handler()
	if got := metricValue(t, scrape(t, h2), "redpatchd_fleet_systems"); got != "1" {
		t.Fatalf("restarted fleet gauge = %s, want 1", got)
	}
	if w := do(t, h2, http.MethodPost, "/api/v2/fleet/plan", `{}`); w.Code != http.StatusOK {
		t.Fatalf("restarted plan status = %d: %s", w.Code, w.Body)
	}
	// A clean registry skips the dump: the file's mtime must not move.
	info1, err := os.Stat(filepath.Join(dir, "fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	second.dumpCaches()
	info2, err := os.Stat(filepath.Join(dir, "fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !info1.ModTime().Equal(info2.ModTime()) {
		t.Error("clean fleet registry was re-dumped")
	}

	// A corrupt dump is rejected, leaving the fleet empty.
	if err := os.WriteFile(filepath.Join(dir, "fleet.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	third := mustServer(t, newStudy(t), serverConfig{cacheDir: dir})
	if third.fleetReg.Len() != 0 {
		t.Fatalf("corrupt dump restored %d systems", third.fleetReg.Len())
	}
}

// TestFleetSimulateCancellation: a client disconnect mid-stream must
// stop the simulation and leave no goroutine behind.
func TestFleetSimulateCancellation(t *testing.T) {
	s := mustServer(t, freshStudy(t), serverConfig{})
	h := s.handler()
	if w := do(t, h, http.MethodPost, "/api/v2/fleet/register", `{"systems":[`+fleetSystemB+`]}`); w.Code != http.StatusOK {
		t.Fatalf("register status = %d: %s", w.Code, w.Body)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/api/v2/fleet/simulate",
		strings.NewReader(`{"seed":1}`)).WithContext(ctx)
	w := &signalWriter{cancel: cancel} // cancels on the first streamed byte
	h.ServeHTTP(w, req)

	deadline := time.Now().Add(10 * time.Second)
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
