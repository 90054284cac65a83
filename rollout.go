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
// fractions. One-shot, rolling-N, blue-green and canary-then-ramp are
// special cases of the fraction sequence; Points expands the schedule for
// a design's tier count, validating it. Every expansion starts
// all-unpatched and ends all-patched, bracketing both atomic endpoints.
type RolloutSchedule = redundancy.RolloutSchedule

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
	if spec.Name == "" {
		spec.Name = spec.CanonicalName()
	}
	r, err := s.eng.EvaluateRollout(ctx, spec, fractions)
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
	if spec.Name == "" {
		spec.Name = spec.CanonicalName()
	}
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	points, err := sched.Points(len(spec.Tiers))
	if err != nil {
		return 0, err
	}
	err = s.eng.RolloutSweep(ctx, spec, points, func(step int, r redundancy.RolloutResult) error {
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
