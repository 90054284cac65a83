package engine

import (
	"context"
	"fmt"

	"redpatch/internal/paperdata"
	"redpatch/internal/redundancy"
	"redpatch/internal/trace"
)

// EvaluateRollout scores one design at one rollout point (per-tier
// patched fractions aligned with spec.Tiers), serving repeats from the
// memo. Concurrent calls for the same (spec, patched-counts)
// identity share a single solve, with the same join-abandon semantics
// as EvaluateSpecCtx. The returned report, at step 0, carries a copy of
// the requested fractions even on a cache hit.
func (g *Engine) EvaluateRollout(ctx context.Context, spec paperdata.DesignSpec, fractions []float64) (RolloutReport, error) {
	c, err := g.check(spec)
	if err != nil {
		return RolloutReport{}, err
	}
	return g.evaluateRolloutTraced(ctx, c, fractions)
}

// evaluateRolloutTraced opens the "engine.evaluate" span with the
// caller's attributes — RolloutSweep adds per-point queue wait.
func (g *Engine) evaluateRolloutTraced(ctx context.Context, c Checked, fractions []float64, attrs ...trace.Attr) (res RolloutReport, err error) {
	ctx, sp := startEvaluate(ctx, c.spec, attrs)
	defer func() { sp.EndErr(err) }()
	sp.SetAttr("rollout", true)

	patched, err := redundancy.PatchedCounts(c.spec, fractions)
	if err != nil {
		return RolloutReport{}, err
	}
	// Fractions that ceil to the same counts share one entry: the
	// quotient structure, not the raw fraction, determines the models.
	v, err := g.do(ctx, sp, c, patched, &g.rolloutSolves, &g.rolloutHits,
		func() (entry, error) {
			r, err := g.eval.EvaluatePatched(ctx, c.spec, patched)
			return rolloutEntry(r), err
		})
	if err != nil {
		return RolloutReport{}, err
	}
	return v.rollout(0, append([]float64(nil), fractions...), patched), nil
}

// RolloutSweep expands the schedule for the design and evaluates every
// point on the worker pool, streaming reports to fn in completion
// order, each with its point's schedule index as Step, and returns the
// number of points. fn runs on a single collector goroutine; returning
// an error cancels the sweep. progress (optional) runs there too after
// every completed point. The whole sweep runs under a "rollout.sweep"
// span; each point's evaluate span carries its queue wait, like design
// sweeps.
func (g *Engine) RolloutSweep(ctx context.Context, spec paperdata.DesignSpec, sched redundancy.RolloutSchedule, fn func(RolloutReport) error, progress func(done, total int)) (total int, err error) {
	c, err := g.check(spec)
	if err != nil {
		return 0, err
	}
	points, err := sched.Points(len(spec.Tiers))
	if err != nil {
		return 0, err
	}
	ctx, sp := trace.Start(ctx, "rollout.sweep")
	if sp != nil {
		// Named once, for every point's span too.
		c.spec.Name = spanName(spec)
		sp.SetAttr("design", c.spec.Name)
		sp.SetAttr("points", len(points))
	}
	defer func() { sp.EndErr(err) }()
	err = stream(ctx, g, points, progress,
		func(fr []float64, wait trace.Attr) (RolloutReport, error) {
			r, err := g.evaluateRolloutTraced(ctx, c, fr, wait)
			if err != nil {
				err = fmt.Errorf("engine: rollout point %v: %w", fr, err)
			}
			return r, err
		},
		func(step int, r RolloutReport) error {
			r.Step = step
			return fn(r)
		})
	if err != nil {
		return 0, err
	}
	return len(points), nil
}
