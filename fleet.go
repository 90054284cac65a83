package redpatch

import (
	"context"
	"time"

	"redpatch/internal/engine"
	"redpatch/internal/fleet"
	"redpatch/internal/patch"
)

// fleetEngine adapts a case study to the fleet scheduler's Engine
// interface: design evaluations go through the study's memoized engine
// (so a thousand-system fleet over a handful of spec shapes costs a
// handful of solves), campaign planning through the evaluator's
// policy-aware planner.
type fleetEngine struct{ *CaseStudy }

func (f fleetEngine) EvaluateSummaries(ctx context.Context, spec DesignSpec) (before, after engine.Summary, err error) {
	return f.eng.EvaluateSummaries(ctx, spec)
}

func (f fleetEngine) PlanCampaign(role string, maxWindow time.Duration) (patch.Campaign, error) {
	return f.eval.PlanCampaign(role, maxWindow)
}

// FleetEngine exposes the study to the fleet scheduler
// (internal/fleet.PlanFleet): redpatchd's scenario registry resolves one
// per named scenario.
func (s *CaseStudy) FleetEngine() fleet.Engine { return fleetEngine{s} }
