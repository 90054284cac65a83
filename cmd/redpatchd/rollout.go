package main

// The mixed-version rollout surface: POST /api/v2/rollout/sweep streams
// the security-availability frontier of a rollout schedule as NDJSON —
// one evaluated point per line in completion order, each scoring the
// design with some replicas patched and the rest not, plus a trailer
// carrying the Pareto frontier of the whole rollout.

import (
	"fmt"
	"net/http"

	"redpatch"
)

// rolloutSweepRequest is the /api/v2/rollout/sweep body: one role-keyed
// design and a rollout schedule to expand over it.
type rolloutSweepRequest struct {
	Scenario string                   `json:"scenario,omitempty"`
	Spec     redpatch.DesignSpec      `json:"spec"`
	Schedule redpatch.RolloutSchedule `json:"schedule"`
}

// handleRolloutSweep streams a rollout sweep as NDJSON with the same
// contract as handleSweepStream: one point report per line in completion
// order, the first flushed at once and the rest batched under the same
// size and linger bounds, periodic {"progress":true,...} events (rollout
// cache-hit ratio and ETA, at most one per progressEvery, flushed with
// the batch before them), then a {"done":true,...} trailer that carries
// the rollout's security-availability frontier (and, with ?explain=1, the
// request's span provenance). Client disconnects cancel the sweep
// through the request context; errors after the first byte surface as an
// {"error":...,"reason":...} trailer line.
func (s *server) handleRolloutSweep(w http.ResponseWriter, r *http.Request) {
	var req rolloutSweepRequest
	if err := readRequest(r.Body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The spec's pre-check: a stream must answer 400 before its first
	// byte, so the engine's own check would come too late.
	err := s.checkCaps(req.Spec)
	if err == nil {
		err = req.Spec.Validate()
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Rolling and canary ramps expand to one point per step, so a step
	// count past the cap is refused before the expansion allocates it.
	if req.Schedule.Steps > s.maxDesigns {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("schedule has %d steps, above the %d cap", req.Schedule.Steps, s.maxDesigns))
		return
	}
	// Expanding the schedule before streaming keeps every validation
	// fault a clean 400: bad strategies, out-of-range fractions and
	// oversized expansions never start an NDJSON response.
	points, err := req.Schedule.Points(len(req.Spec.Tiers))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(points) > s.maxDesigns {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("schedule expands to %d points, above the %d cap", len(points), s.maxDesigns))
		return
	}
	sc, err := s.reg.get(req.Scenario)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.chaos.HitCtx(r.Context(), "http.evaluate"); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	st := newNDJSONStream(w)
	defer st.close()
	// Points whose fractions ceil to already-solved patched counts are
	// memo hits.
	progress := st.progress(s.progressEvery, func() (uint64, uint64) {
		es := sc.study.EngineStats()
		return es.RolloutHits, es.RolloutSolves
	})
	// The frontier needs every point, so reports accumulate for the
	// trailer; the expansion is capped at maxDesigns points above.
	reports := make([]redpatch.RolloutReport, 0, len(points))
	total, err := sc.study.RolloutSweepEach(r.Context(), req.Spec, req.Schedule, func(rep redpatch.RolloutReport) error {
		reports = append(reports, rep)
		return st.line(rep)
	}, progress)
	if err != nil {
		st.fail(err)
		return
	}
	trailer := rolloutDone{
		scenario: sc.name,
		total:    total,
		frontier: redpatch.RolloutPareto(reports),
	}
	if wantExplain(r) {
		// Every solver span has ended by now; the provenance block covers
		// the whole sweep.
		trailer.explain = s.explain(r.Context())
	}
	_ = st.event(trailer)
}
