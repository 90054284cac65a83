package redpatch

import (
	"cmp"
	"context"

	"redpatch/internal/engine"
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

// RolloutReport is the evaluation of one design at one rollout point:
// the point's schedule Step, per-tier Fractions and Patched counts, the
// mixed-version Security metrics, COA and service availability. The
// JSON tags are the redpatchd v2 NDJSON wire shape.
type RolloutReport = engine.RolloutReport

// RolloutSchedule describes a rollout as a sequence of per-tier patched
// fractions. One-shot, rolling-N, blue-green and canary-then-ramp are
// special cases of the fraction sequence; Points expands the schedule for
// a design's tier count, validating it. Every expansion starts
// all-unpatched and ends all-patched, bracketing both atomic endpoints.
type RolloutSchedule = redundancy.RolloutSchedule

func (c chaosEvaluator) EvaluatePatched(ctx context.Context, spec paperdata.DesignSpec, patched []int) (redundancy.RolloutResult, redundancy.Provenance, error) {
	if err := c.inj.HitCtx(ctx, ChaosSiteEvaluate); err != nil {
		return redundancy.RolloutResult{}, redundancy.Provenance{}, err
	}
	return c.next.EvaluatePatched(ctx, spec, patched)
}

// EvaluateRollout evaluates a design at one rollout point given by
// per-tier patched fractions (aligned with the spec's tiers), through
// the engine's memo. Fraction 0 everywhere reproduces the
// atomic before-patch result, fraction 1 everywhere the after-patch one.
func (s *CaseStudy) EvaluateRollout(ctx context.Context, spec DesignSpec, fractions []float64) (RolloutReport, error) {
	return s.eng.EvaluateRollout(ctx, spec, fractions)
}

// RolloutSweepEach expands the schedule for the design and streams every
// evaluated point to fn as it completes (completion order; Step carries
// the schedule index). fn runs on one collector goroutine; returning an
// error cancels the sweep. progress (optional) runs there too after
// every completed point. The number of schedule points is returned.
func (s *CaseStudy) RolloutSweepEach(ctx context.Context, spec DesignSpec, sched RolloutSchedule, fn func(RolloutReport) error, progress func(done, total int)) (int, error) {
	return s.eng.RolloutSweep(ctx, spec, sched, fn, progress)
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
