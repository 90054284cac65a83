package main

// The /api/v2 surface: role-keyed design specs, heterogeneous sweeps,
// patch-campaign planning, NDJSON streaming, and a scenario registry so
// one daemon serves several (dataset, policy, schedule) configurations —
// tenants or what-if studies — each behind its own memoizing engine.

import (
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"sort"
	"sync"
	"time"

	"redpatch"
)

// scenarioConfig is the wire shape of a scenario's patch-management
// configuration; zero-value fields select the paper's defaults.
type scenarioConfig struct {
	// CriticalThreshold is the CVSS base-score patch bound (default 8.0).
	CriticalThreshold float64 `json:"criticalThreshold,omitempty"`
	// PatchAll patches every vulnerability regardless of score.
	PatchAll bool `json:"patchAll,omitempty"`
	// IntervalHours is the patch cadence (default 720, monthly).
	IntervalHours float64 `json:"intervalHours,omitempty"`
}

// scenario is one registered (policy, schedule) configuration with its
// own case study and therefore its own engine and cache.
type scenario struct {
	name    string
	cfg     scenarioConfig
	study   *redpatch.CaseStudy
	created time.Time
}

// scenarioJSON is the wire view of a scenario.
type scenarioJSON struct {
	Name    string               `json:"name"`
	Config  scenarioConfig       `json:"config"`
	Created time.Time            `json:"created"`
	Engine  redpatch.EngineStats `json:"engine"`
}

func (sc *scenario) json() scenarioJSON {
	return scenarioJSON{
		Name:    sc.name,
		Config:  sc.cfg,
		Created: sc.created,
		Engine:  sc.study.EngineStats(),
	}
}

// defaultScenario is the always-present scenario built from the daemon's
// command-line flags; it cannot be deleted.
const defaultScenario = "default"

var scenarioName = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,64}$`)

// registry is the named-scenario store. Reads vastly outnumber writes,
// so lookups take the read lock; scenario construction (four SRN solves)
// happens outside the lock with a conflict re-check on insert.
type registry struct {
	workers int
	limit   int
	store   *cacheStore // nil without -cache-dir; warms new scenarios

	mu        sync.RWMutex
	scenarios map[string]*scenario
}

func newRegistry(def *redpatch.CaseStudy, defCfg scenarioConfig, workers, limit int, store *cacheStore) *registry {
	if limit < 1 {
		limit = 32
	}
	return &registry{
		workers: workers,
		limit:   limit,
		store:   store,
		scenarios: map[string]*scenario{
			defaultScenario: {name: defaultScenario, cfg: defCfg, study: def, created: time.Now()},
		},
	}
}

// get resolves a scenario name; empty selects the default.
func (r *registry) get(name string) (*scenario, error) {
	if name == "" {
		name = defaultScenario
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	sc, ok := r.scenarios[name]
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", name)
	}
	return sc, nil
}

// list returns every scenario sorted by name.
func (r *registry) list() []*scenario {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*scenario, 0, len(r.scenarios))
	for _, sc := range r.scenarios {
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// errScenarioExists marks name conflicts so the handler can answer 409
// instead of 400.
var errScenarioExists = errors.New("scenario already exists")

// create registers a new scenario, building its case study (and engine)
// first. Name conflicts and the registry cap are reported as errors.
func (r *registry) create(name string, cfg scenarioConfig) (*scenario, error) {
	if !scenarioName.MatchString(name) {
		return nil, fmt.Errorf("scenario name must match %s", scenarioName)
	}
	r.mu.RLock()
	_, exists := r.scenarios[name]
	n := len(r.scenarios)
	r.mu.RUnlock()
	if exists {
		return nil, fmt.Errorf("scenario %q: %w", name, errScenarioExists)
	}
	if n >= r.limit {
		return nil, fmt.Errorf("registry full: %d scenarios", n)
	}
	study, err := redpatch.NewCaseStudyWithConfig(redpatch.Config{
		CriticalThreshold:  cfg.CriticalThreshold,
		PatchAll:           cfg.PatchAll,
		PatchIntervalHours: cfg.IntervalHours,
		Workers:            r.workers,
	})
	if err != nil {
		return nil, err
	}
	sc := &scenario{name: name, cfg: cfg, study: study, created: time.Now()}
	r.mu.Lock()
	if _, raced := r.scenarios[name]; raced {
		r.mu.Unlock()
		return nil, fmt.Errorf("scenario %q: %w", name, errScenarioExists)
	}
	if full := len(r.scenarios); full >= r.limit {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry full: %d scenarios", full)
	}
	r.scenarios[name] = sc
	r.mu.Unlock()
	// A scenario re-registered after a restart (or deletion) picks its
	// persisted cache back up; the fingerprint check rejects dumps from
	// a different policy/schedule configuration.
	if r.store != nil {
		r.store.load(sc)
	}
	return sc, nil
}

// remove deletes a scenario; the default is permanent. Its cache file
// stays on disk — a same-configuration re-registration warms back up,
// a different one rejects the stale file — but the store's
// dirty-tracking state is dropped so a successor's dumps are never
// suppressed by the dead scenario's counts.
func (r *registry) remove(name string) error {
	if name == defaultScenario {
		return fmt.Errorf("the %q scenario cannot be deleted", defaultScenario)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.scenarios[name]; !ok {
		return fmt.Errorf("unknown scenario %q", name)
	}
	delete(r.scenarios, name)
	if r.store != nil {
		r.store.forget(name)
	}
	return nil
}

// checkCaps bounds a role-keyed design: tier-group count, per-group
// replicas, and the upper-layer CTMC state product (every group adds a
// (replicas+1)-state dimension).
func (s *server) checkCaps(spec redpatch.DesignSpec) error {
	if len(spec.Tiers) > s.maxTiers {
		return fmt.Errorf("%d tier groups, above the %d cap", len(spec.Tiers), s.maxTiers)
	}
	states := 1
	for _, t := range spec.Tiers {
		if err := s.checkReplicas(t.Replicas); err != nil {
			return err
		}
		states *= t.Replicas + 1
		if states > s.maxStates {
			return fmt.Errorf("availability model would exceed %d states", s.maxStates)
		}
	}
	return nil
}

// checkSpecSweep bounds a role-keyed sweep: tier count, per-tier ranges,
// worst-case state product, and the enumerated-design cap.
func (s *server) checkSpecSweep(req redpatch.SpecSweepRequest) error {
	if len(req.Tiers) > s.maxTiers {
		return fmt.Errorf("%d sweep tiers, above the %d cap", len(req.Tiers), s.maxTiers)
	}
	states := 1
	for _, t := range req.Tiers {
		if err := s.checkReplicas(t.Min, t.Max); err != nil {
			return err
		}
		states *= max(t.Min, t.Max, 1) + 1
		if states > s.maxStates {
			return fmt.Errorf("availability model would exceed %d states", s.maxStates)
		}
	}
	if err := req.Validate(); err != nil {
		return err
	}
	if n := req.SweepSize(); n > s.maxDesigns {
		return fmt.Errorf("sweep enumerates %d designs, above the %d cap", n, s.maxDesigns)
	}
	return nil
}

// --- scenario CRUD -------------------------------------------------------

type createScenarioRequest struct {
	Name   string         `json:"name"`
	Config scenarioConfig `json:"config"`
}

func (s *server) handleScenarioList(w http.ResponseWriter, r *http.Request) {
	scs := s.reg.list()
	out := make([]scenarioJSON, len(scs))
	for i, sc := range scs {
		out[i] = sc.json()
	}
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": out})
}

func (s *server) handleScenarioCreate(w http.ResponseWriter, r *http.Request) {
	var req createScenarioRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sc, err := s.reg.create(req.Name, req.Config)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errScenarioExists) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, sc.json())
}

func (s *server) handleScenarioDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.reg.remove(name); err != nil {
		status := http.StatusNotFound
		if name == defaultScenario {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- evaluation ----------------------------------------------------------

type evaluateV2Request struct {
	Scenario string              `json:"scenario,omitempty"`
	Spec     redpatch.DesignSpec `json:"spec"`
}

// scenarioSpec decodes, bounds (checkCaps) and resolves an
// evaluate-shaped body; its handler validates the spec.
func (s *server) scenarioSpec(r *http.Request) (*scenario, redpatch.DesignSpec, error) {
	var req evaluateV2Request
	if err := readRequest(r.Body, &req); err != nil {
		return nil, redpatch.DesignSpec{}, err
	}
	if err := s.checkCaps(req.Spec); err != nil {
		return nil, redpatch.DesignSpec{}, err
	}
	sc, err := s.reg.get(req.Scenario)
	if err != nil {
		return nil, redpatch.DesignSpec{}, err
	}
	return sc, req.Spec, nil
}

func (s *server) handleEvaluateV2(w http.ResponseWriter, r *http.Request) {
	sc, spec, err := s.scenarioSpec(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Admission happens here rather than in the route wrapper: the spec
	// must be decoded before a warm (already-memoized) design can be
	// recognized and bypass the limiter — a saturated daemon still
	// answers warm queries with a map lookup, which also serves them.
	// The lookup validates the spec, so an invalid one is a 400 before
	// admission.
	report, cold, err := sc.study.CachedReport(r.Context(), spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	release, ok := s.admitEvaluate(w, r, !cold.Cold())
	if !ok {
		return
	}
	defer release()
	if err := s.chaos.HitCtx(r.Context(), "http.evaluate"); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if cold.Cold() {
		if report, err = cold.Evaluate(r.Context()); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
	}
	resp := evaluateAnswer{scenario: sc.name, report: report}
	if wantExplain(r) {
		// The solver spans have all ended by now; only the root span is
		// still open, so the provenance block is complete.
		resp.explain = s.explain(r.Context())
	}
	writeAppended(w, http.StatusOK, resp)
}

// handleRankPatches admits in-handler, like evaluate, so that an
// invalid spec is refused by its pre-check before admission.
func (s *server) handleRankPatches(w http.ResponseWriter, r *http.Request) {
	sc, spec, err := s.scenarioSpec(r)
	if err == nil {
		err = spec.Validate()
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	release, ok := s.admitEvaluate(w, r, false)
	if !ok {
		return
	}
	defer release()
	ranked, err := sc.study.RankPatchesSpec(spec)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"scenario":   sc.name,
		"design":     spec,
		"candidates": ranked,
	})
}

type campaignRequest struct {
	Scenario      string  `json:"scenario,omitempty"`
	Role          string  `json:"role"`
	WindowMinutes float64 `json:"windowMinutes"`
}

func (s *server) handlePlanCampaign(w http.ResponseWriter, r *http.Request) {
	var req campaignRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.WindowMinutes <= 0 || req.WindowMinutes > 24*60 {
		writeError(w, http.StatusBadRequest, errors.New("windowMinutes must be in (0, 1440]"))
		return
	}
	sc, err := s.reg.get(req.Scenario)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	plan, err := sc.study.PlanCampaign(req.Role, time.Duration(req.WindowMinutes*float64(time.Minute)))
	if err != nil {
		// Unknown roles and impossible windows are request faults.
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"scenario": sc.name, "campaign": plan})
}

// --- sweeps --------------------------------------------------------------

type sweepV2Request struct {
	Scenario string `json:"scenario,omitempty"`
	redpatch.SpecSweepRequest
}

// scenarioSweep decodes, validates and resolves a sweep-shaped body.
func (s *server) scenarioSweep(r *http.Request) (*scenario, redpatch.SpecSweepRequest, error) {
	var req sweepV2Request
	if err := readRequest(r.Body, &req); err != nil {
		return nil, redpatch.SpecSweepRequest{}, err
	}
	if err := s.checkSpecSweep(req.SpecSweepRequest); err != nil {
		return nil, redpatch.SpecSweepRequest{}, err
	}
	sc, err := s.reg.get(req.Scenario)
	if err != nil {
		return nil, redpatch.SpecSweepRequest{}, err
	}
	return sc, req.SpecSweepRequest, nil
}

// handleSweepStream streams sweep results as NDJSON: one report object
// per line in completion order, the first flushed at once and the rest
// in batches written at streamBatchBytes or after streamLinger,
// whichever comes first; periodic {"progress":true,...} events with
// done/total counts, the cache-hit ratio and an ETA (at most one per
// progressEvery, flushed with the batch before them); then a
// {"done":true,...} trailer carrying the Pareto front. Client
// disconnects cancel the sweep through the request context. Errors
// after the first byte cannot change the status code; they surface as
// an {"error":...,"reason":...} trailer line instead (reason
// "budget_exhausted" for an expired request deadline, "canceled", or
// "internal"). Every stream therefore ends in exactly one explicit
// done or error line.
func (s *server) handleSweepStream(w http.ResponseWriter, r *http.Request) {
	sc, req, err := s.scenarioSweep(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	st := newNDJSONStream(w)
	defer st.close()
	// The trailer's front needs every kept report; the sweep is capped
	// at maxDesigns by scenarioSweep.
	reports := make([]redpatch.DesignReport, 0, req.SweepSize())
	progress := st.progress(s.progressEvery, func() (uint64, uint64) {
		es := sc.study.EngineStats()
		return es.Hits, es.Solves
	})
	total, err := sc.study.SweepSpecEachProgress(r.Context(), req, func(rep redpatch.DesignReport) error {
		reports = append(reports, rep)
		return st.line(rep)
	}, progress)
	if err != nil {
		st.fail(err)
		return
	}
	_ = st.event(sweepDone{
		scenario: sc.name,
		total:    total,
		kept:     len(reports),
		pareto:   redpatch.Pareto(reports),
	})
}
