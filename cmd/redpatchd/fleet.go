package main

// The /api/v2/fleet surface: a registry of modeled systems (scenario +
// design + priority + compliance deadline), fleet-wide campaign
// planning on the memoized engines, and a deterministic campaign
// simulation with try-revert rollback streamed as NDJSON. The registry
// persists alongside the scenario caches (see cache.go), so a restarted
// daemon keeps its fleet.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"redpatch/internal/engine"
	"redpatch/internal/faultinject"
	"redpatch/internal/fleet"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
)

// fleetResolver adapts the scenario registry to the fleet scheduler:
// each system names a scenario, whose case study answers design
// evaluations from its own memo cache. With fault injection configured,
// every resolved engine is wrapped so the chaos suite can fail
// plan-time evaluations ("fleet.evaluate") and campaign planning
// ("fleet.plan").
func (s *server) fleetResolver() fleet.Resolver {
	return func(name string) (fleet.Engine, error) {
		sc, err := s.reg.get(name)
		if err != nil {
			return nil, err
		}
		eng := sc.study.FleetEngine()
		if s.chaos != nil {
			return chaosFleetEngine{inj: s.chaos, next: eng}, nil
		}
		return eng, nil
	}
}

// chaosFleetEngine interposes the fault injector between the fleet
// scheduler and a scenario engine; test-only (nil injector never wraps).
type chaosFleetEngine struct {
	inj  *faultinject.Injector
	next fleet.Engine
}

func (c chaosFleetEngine) EvaluateSummaries(ctx context.Context, spec paperdata.DesignSpec) (before, after engine.Summary, err error) {
	if err := c.inj.HitCtx(ctx, "fleet.evaluate"); err != nil {
		return engine.Summary{}, engine.Summary{}, err
	}
	return c.next.EvaluateSummaries(ctx, spec)
}

func (c chaosFleetEngine) PlanCampaign(role string, maxWindow time.Duration) (patch.Campaign, error) {
	if err := c.inj.Hit("fleet.plan"); err != nil {
		return patch.Campaign{}, err
	}
	return c.next.PlanCampaign(role, maxWindow)
}

type fleetRegisterRequest struct {
	Systems []fleet.System `json:"systems"`
}

func (s *server) handleFleetRegister(w http.ResponseWriter, r *http.Request) {
	var req fleetRegisterRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Systems) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("no systems to register"))
		return
	}
	// Resolve each system's scenario and bound its design with the caps
	// of a direct evaluation (an unbounded design registered once would
	// be solved on every plan), and the fleet with the sweep-space cap,
	// before the registry validates the batch: a rejected request never
	// half-registers.
	fresh := 0
	for _, sys := range req.Systems {
		_, err := s.reg.get(sys.Scenario)
		if err == nil {
			if err = s.checkCaps(sys.Spec()); err != nil {
				err = fmt.Errorf("system %q: %w", sys.ID, err)
			}
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if _, ok := s.fleetReg.Get(sys.ID); !ok {
			fresh++
		}
	}
	if s.fleetReg.Len()+fresh > s.maxDesigns {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("fleet would hold %d systems, above the %d cap", s.fleetReg.Len()+fresh, s.maxDesigns))
		return
	}
	if err := s.fleetReg.Register(req.Systems...); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"registered": len(req.Systems),
		"fleet":      s.fleetReg.Len(),
	})
}

func (s *server) handleFleetSystems(w http.ResponseWriter, r *http.Request) {
	systems := s.fleetReg.List()
	writeJSON(w, http.StatusOK, map[string]any{
		"count":   len(systems),
		"systems": systems,
	})
}

func (s *server) handleFleetSystemDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.fleetReg.Remove(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown system %q", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// fleetPlanRequest selects and paces a fleet campaign. Empty systemIds
// plans the whole registered fleet.
type fleetPlanRequest struct {
	SystemIDs     []string `json:"systemIds,omitempty"`
	MaxConcurrent int      `json:"maxConcurrent,omitempty"`
	CycleHours    float64  `json:"cycleHours,omitempty"`
}

// selectSystems resolves a plan request's system set against the
// registry.
func (s *server) selectSystems(ids []string) ([]fleet.System, error) {
	if len(ids) == 0 {
		systems := s.fleetReg.List()
		if len(systems) == 0 {
			return nil, errors.New("no systems registered")
		}
		return systems, nil
	}
	systems := make([]fleet.System, len(ids))
	for i, id := range ids {
		sys, ok := s.fleetReg.Get(id)
		if !ok {
			return nil, fmt.Errorf("unknown system %q", id)
		}
		systems[i] = sys
	}
	return systems, nil
}

func (req fleetPlanRequest) validate() error {
	if req.MaxConcurrent < 0 {
		return errors.New("maxConcurrent must be non-negative")
	}
	if req.CycleHours < 0 {
		return errors.New("cycleHours must be non-negative")
	}
	return nil
}

func (req fleetPlanRequest) options() fleet.PlanOptions {
	return fleet.PlanOptions{MaxConcurrent: req.MaxConcurrent, CycleHours: req.CycleHours}
}

// planFleet runs the scheduler for a request and records the planning
// metrics; both the plan endpoint and the simulate stream start here.
func (s *server) planFleet(r *http.Request, req fleetPlanRequest) (fleet.Plan, error) {
	systems, err := s.selectSystems(req.SystemIDs)
	if err != nil {
		return fleet.Plan{}, err
	}
	plan, err := fleet.PlanFleet(r.Context(), systems, s.fleetResolver(), req.options())
	if err != nil {
		return fleet.Plan{}, err
	}
	m := s.metrics
	m.fleetPlans.Inc()
	m.fleetWindowsPlanned.Add(float64(len(plan.Windows)))
	m.fleetDeadlineAtRisk.Set(float64(len(plan.DeadlineAtRisk)))
	return plan, nil
}

func (s *server) handleFleetPlan(w http.ResponseWriter, r *http.Request) {
	var req fleetPlanRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	plan, err := s.planFleet(r, req)
	if err != nil {
		status := statusFor(err)
		if status == http.StatusInternalServerError {
			// Selection and validation faults are the client's.
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"plan": plan})
}

type fleetSimulateRequest struct {
	fleetPlanRequest
	Seed        int64 `json:"seed,omitempty"`
	MaxAttempts int   `json:"maxAttempts,omitempty"`
}

// handleFleetSimulate plans the requested fleet campaign, then executes
// it under the try-revert model and streams the execution as NDJSON:
// one {"plan":true,...} header, one event object per maintenance window
// in execution order (batched like a sweep stream's results, rollbacks
// and re-queued CVEs included), then a {"done":true,"summary":...}
// trailer. Client disconnects cancel the simulation through the request
// context; errors after the first byte surface as an
// {"error":...,"reason":...} trailer line, so every stream ends in
// exactly one explicit done or error line.
func (s *server) handleFleetSimulate(w http.ResponseWriter, r *http.Request) {
	var req fleetSimulateRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.MaxAttempts < 0 || req.MaxAttempts > 100 {
		writeError(w, http.StatusBadRequest, errors.New("maxAttempts must be in [0, 100]"))
		return
	}
	plan, err := s.planFleet(r, req.fleetPlanRequest)
	if err != nil {
		status := statusFor(err)
		if status == http.StatusInternalServerError {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	st := newNDJSONStream(w)
	defer st.close()
	_ = st.event(map[string]any{
		"plan":           true,
		"systems":        len(plan.Systems),
		"windows":        len(plan.Windows),
		"cycles":         plan.Cycles,
		"deadlineAtRisk": plan.DeadlineAtRisk,
	})
	s.metrics.fleetSimulations.Inc()
	opts := fleet.SimOptions{
		Seed:          req.Seed,
		MaxConcurrent: req.MaxConcurrent,
		CycleHours:    req.CycleHours,
		MaxAttempts:   req.MaxAttempts,
	}
	sum, err := fleet.Simulate(r.Context(), plan, opts, func(ev fleet.Event) error {
		// The chaos site sits inside the per-window callback so fault
		// injection can kill a simulation mid-stream — after the plan
		// header and some events are out — which is exactly the shape
		// the goroutine-leak and trailer tests need to exercise.
		if err := s.chaos.HitCtx(r.Context(), "fleet.window"); err != nil {
			return err
		}
		s.metrics.fleetWindowsExecuted.With(ev.Outcome.String()).Inc()
		return st.line(ev)
	})
	if err != nil {
		st.fail(err)
		return
	}
	_ = st.event(map[string]any{"done": true, "summary": sum})
}
