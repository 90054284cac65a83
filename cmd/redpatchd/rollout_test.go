package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"redpatch"
)

func TestRolloutSweepNDJSON(t *testing.T) {
	h := testServer(t).handler()
	body := `{
		"spec":{"tiers":[
			{"role":"dns","replicas":1},
			{"role":"web","replicas":2},
			{"role":"app","replicas":2},
			{"role":"db","replicas":1}]},
		"schedule":{"strategy":"rolling","steps":4}}`
	req := httptest.NewRequest(http.MethodPost, "/api/v2/rollout/sweep?explain=1", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	reports := make(map[int]redpatch.RolloutReport)
	var done struct {
		Done     bool                     `json:"done"`
		Scenario string                   `json:"scenario"`
		Total    int                      `json:"total"`
		Frontier []redpatch.RolloutReport `json:"frontier"`
		Explain  json.RawMessage          `json:"explain"`
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
		case probe["progress"] != nil:
			// Throttled; may or may not appear on a fast sweep.
		default:
			var rep redpatch.RolloutReport
			if err := json.Unmarshal(line, &rep); err != nil {
				t.Fatal(err)
			}
			if rep.COA <= 0 || rep.COA > 1 {
				t.Fatalf("implausible streamed point: %+v", rep)
			}
			reports[rep.Step] = rep
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !done.Done || done.Scenario != "default" || done.Total != 5 || len(reports) != 5 {
		t.Fatalf("stream = %d points, trailer %+v; want 5 points, done total 5", len(reports), done)
	}
	// The rolling schedule brackets both atomic endpoints: step 0 fully
	// unpatched (everything up), the last step fully patched.
	first, last := reports[0], reports[4]
	if first.COA != 1 || first.Patched[1] != 0 {
		t.Errorf("step 0 = %+v, want the unpatched endpoint", first)
	}
	if last.Fractions[0] != 1 || last.Patched[1] != 2 {
		t.Errorf("step 4 = %+v, want the fully patched endpoint", last)
	}
	// Mid-rollout security must improve monotonically along a rolling
	// schedule while availability degrades toward the patched endpoint.
	if !(last.Security.ASP < first.Security.ASP) {
		t.Errorf("ASP did not improve over the rollout: %v -> %v", first.Security.ASP, last.Security.ASP)
	}
	if !(last.COA < first.COA) {
		t.Errorf("COA did not degrade over the rollout: %v -> %v", first.COA, last.COA)
	}
	// The frontier is non-empty, dominance-free and sorted by ASP.
	if len(done.Frontier) == 0 {
		t.Fatal("trailer has no frontier")
	}
	for i := 1; i < len(done.Frontier); i++ {
		if done.Frontier[i].Security.ASP < done.Frontier[i-1].Security.ASP {
			t.Fatalf("frontier not sorted by ascending ASP: %+v", done.Frontier)
		}
	}
	if len(done.Explain) == 0 {
		t.Error("?explain=1 trailer carries no provenance")
	}
}

func TestRolloutSweepRejectsBadRequests(t *testing.T) {
	h := testServer(t).handler()
	okSpec := `{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":1},{"role":"db","replicas":1}]}`
	for name, body := range map[string]string{
		"bad json":         `nope`,
		"empty spec":       `{"spec":{"tiers":[]},"schedule":{"strategy":"one-shot"}}`,
		"unknown scenario": `{"scenario":"nope","spec":` + okSpec + `,"schedule":{"strategy":"one-shot"}}`,
		"unknown strategy": `{"spec":` + okSpec + `,"schedule":{"strategy":"teleport"}}`,
		"no custom points": `{"spec":` + okSpec + `,"schedule":{}}`,
		"fraction arity":   `{"spec":` + okSpec + `,"schedule":{"fractions":[[0.5]]}}`,
		"fraction range":   `{"spec":` + okSpec + `,"schedule":{"fractions":[[0,0,0,2]]}}`,
		"bad canary":       `{"spec":` + okSpec + `,"schedule":{"strategy":"canary","canaryFraction":2}}`,
		"bad order":        `{"spec":` + okSpec + `,"schedule":{"strategy":"blue-green","order":[0,0,1,2]}}`,
		"replica cap":      `{"spec":{"tiers":[{"role":"web","replicas":1000}]},"schedule":{"strategy":"one-shot"}}`,
	} {
		if w := do(t, h, http.MethodPost, "/api/v2/rollout/sweep", body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", name, w.Code, w.Body)
		}
	}
}

// TestRolloutSweepPointCap: a custom schedule larger than -max-designs
// is refused before the stream starts.
func TestRolloutSweepPointCap(t *testing.T) {
	study, err := redpatch.NewCaseStudyWithConfig(redpatch.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := mustServer(t, study, serverConfig{maxDesigns: 2, maxReplicas: 16})
	body := `{
		"spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":1},{"role":"app","replicas":1},{"role":"db","replicas":1}]},
		"schedule":{"strategy":"rolling","steps":4}}`
	w := do(t, s.handler(), http.MethodPost, "/api/v2/rollout/sweep", body)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%s)", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "above the 2 cap") {
		t.Fatalf("error does not mention the cap: %s", w.Body)
	}
}

// TestRolloutSweepMemoized: repeating a rollout sweep serves every point
// from the engine's memo.
func TestRolloutSweepMemoized(t *testing.T) {
	study, err := redpatch.NewCaseStudyWithConfig(redpatch.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := mustServer(t, study, serverConfig{maxDesigns: 4096, maxReplicas: 16})
	h := s.handler()
	body := `{
		"spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":1},{"role":"db","replicas":1}]},
		"schedule":{"strategy":"one-shot"}}`
	for i := 0; i < 2; i++ {
		if w := do(t, h, http.MethodPost, "/api/v2/rollout/sweep", body); w.Code != http.StatusOK {
			t.Fatalf("sweep %d: status = %d: %s", i, w.Code, w.Body)
		}
	}
	st := study.EngineStats()
	if st.RolloutSolves != 2 {
		t.Errorf("RolloutSolves = %d, want 2 (one per distinct point)", st.RolloutSolves)
	}
	if st.RolloutHits != 2 {
		t.Errorf("RolloutHits = %d, want 2 (the repeated sweep)", st.RolloutHits)
	}
	// The rollout counters surface in /healthz's engine block.
	w := do(t, h, http.MethodGet, "/healthz", "")
	var resp struct {
		Engine redpatch.EngineStats `json:"engine"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Engine.RolloutSolves != 2 || resp.Engine.RolloutHits != 2 {
		t.Errorf("healthz rollout counters = %d/%d, want 2/2",
			resp.Engine.RolloutSolves, resp.Engine.RolloutHits)
	}
}
