package redpatch

import (
	"cmp"
	"context"

	"redpatch/internal/paperdata"
	"redpatch/internal/redundancy"
)

// This file is the facade over mixed-version rollout evaluation: a
// design's replica classes split into patched/unpatched sub-classes
// whose multiplicities drift over a rollout schedule, evaluated through
// the factored solvers (sub-classed security quotient + mixed-version
// availability tier factors) and memoized through the engine cache —
// the rollout quotient structure joins the cache key, so fractions that
// patch the same replica counts share one solve.

// RolloutSchedule describes a rollout as a sequence of per-tier patched
// fractions. The JSON tags are the redpatchd v2 wire shape. One-shot,
// rolling-N, blue-green and canary-then-ramp are special cases of the
// fraction sequence; every expansion starts all-unpatched and ends
// all-patched, bracketing both atomic endpoints.
type RolloutSchedule struct {
	// Strategy is "custom" (or empty), "one-shot", "rolling",
	// "blue-green" or "canary".
	Strategy string `json:"strategy,omitempty"`
	// Steps is the wave count for rolling and canary ramps (default 4).
	Steps int `json:"steps,omitempty"`
	// CanaryFraction is the canary first-wave fraction (default 0.1).
	CanaryFraction float64 `json:"canaryFraction,omitempty"`
	// Order is the blue-green tier flip order, a permutation of the
	// design's tier indices (default: spec order).
	Order []int `json:"order,omitempty"`
	// Fractions is the explicit point sequence for the custom strategy:
	// one per-tier fraction vector per point.
	Fractions [][]float64 `json:"fractions,omitempty"`
}

func (s RolloutSchedule) rd() redundancy.RolloutSchedule {
	return redundancy.RolloutSchedule{
		Strategy:       s.Strategy,
		Steps:          s.Steps,
		CanaryFraction: s.CanaryFraction,
		Order:          s.Order,
		Fractions:      s.Fractions,
	}
}

// Points expands the schedule into per-tier fraction vectors for a
// design with the given tier count, validating it in the process.
func (s RolloutSchedule) Points(tiers int) ([][]float64, error) {
	return s.rd().Points(tiers)
}

// RolloutReport is the evaluation of one design at one rollout point.
// The JSON tags are the redpatchd v2 NDJSON wire shape.
type RolloutReport struct {
	// Step is the point's index in the schedule's expansion.
	Step int `json:"step"`
	// Fractions are the per-tier rollout fractions of the point.
	Fractions []float64 `json:"fractions"`
	// Patched are the per-tier patched replica counts (ceil(f*n)).
	Patched []int `json:"patched"`
	// Security holds the mixed-version security metrics: patched
	// replicas contribute post-patch attack trees, unpatched ones their
	// pre-patch trees.
	Security SecuritySummary `json:"security"`
	// COA is the capacity oriented availability mid-rollout.
	COA float64 `json:"coa"`
	// ServiceAvailability is P(at least one server up in every tier).
	ServiceAvailability float64 `json:"serviceAvailability"`
}

func convertRollout(step int, r redundancy.RolloutResult) RolloutReport {
	return RolloutReport{
		Step:                step,
		Fractions:           r.Fractions,
		Patched:             r.Patched,
		Security:            summarize(r.Security),
		COA:                 r.COA,
		ServiceAvailability: r.ServiceAvailability,
	}
}

func (c chaosEvaluator) EvaluatePatched(ctx context.Context, spec paperdata.DesignSpec, patched []int) (redundancy.RolloutResult, error) {
	if err := c.inj.HitCtx(ctx, ChaosSiteEvaluate); err != nil {
		return redundancy.RolloutResult{}, err
	}
	return c.next.EvaluatePatched(ctx, spec, patched)
}

// EvaluateRollout evaluates a design at one rollout point given by
// per-tier patched fractions (aligned with the spec's tiers), through
// the engine's memo. Fraction 0 everywhere reproduces the
// atomic before-patch result, fraction 1 everywhere the after-patch one.
func (s *CaseStudy) EvaluateRollout(ctx context.Context, spec DesignSpec, fractions []float64) (RolloutReport, error) {
	p := spec.pd()
	if spec.Name == "" {
		p.Name = p.CanonicalName()
	}
	r, err := s.eng.EvaluateRollout(ctx, p, fractions)
	if err != nil {
		return RolloutReport{}, err
	}
	return convertRollout(0, r), nil
}

// RolloutSweepEach expands the schedule for the design and streams every
// evaluated point to fn as it completes (completion order; Step carries
// the schedule index). fn runs on one collector goroutine; returning an
// error cancels the sweep. progress (optional) runs there too after
// every completed point. The number of schedule points is returned.
func (s *CaseStudy) RolloutSweepEach(ctx context.Context, spec DesignSpec, sched RolloutSchedule, fn func(RolloutReport) error, progress func(done, total int)) (int, error) {
	p := spec.pd()
	if spec.Name == "" {
		p.Name = p.CanonicalName()
	}
	if err := p.Validate(); err != nil {
		return 0, err
	}
	points, err := sched.Points(len(p.Tiers))
	if err != nil {
		return 0, err
	}
	err = s.eng.RolloutSweep(ctx, p, points, func(step int, r redundancy.RolloutResult) error {
		return fn(convertRollout(step, r))
	}, progress)
	if err != nil {
		return 0, err
	}
	return len(points), nil
}

// RolloutPareto returns the rollout points not dominated on the
// (minimize mixed-version ASP, maximize COA) plane — the
// security-availability frontier of the rollout itself — sorted by
// ascending ASP, then descending COA, then step, so a sweep's
// completion order never shows through.
func RolloutPareto(points []RolloutReport) []RolloutReport {
	return redundancy.Front(points,
		func(r RolloutReport) (float64, float64) { return r.Security.ASP, r.COA },
		func(a, b RolloutReport) int { return cmp.Compare(a.Step, b.Step) })
}
