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
// the requested fractions even on a cache hit. The call records an
// "engine.evaluate" span, as EvaluateSpecCtx does.
func (g *Engine) EvaluateRollout(ctx context.Context, spec paperdata.DesignSpec, fractions []float64) (res RolloutReport, err error) {
	c, err := g.check(spec)
	if err != nil {
		return RolloutReport{}, err
	}
	ctx, sp := startEvaluate(ctx, c.spec)
	defer func() { sp.EndErr(err) }()
	sp.SetAttr("rollout", true)
	res, _, err = g.rolloutPoint(ctx, sp, c, fractions)
	return res, err
}

// rolloutPoint serves one rollout point of the checked design from the
// memo, solving a miss through the evaluator's EvaluatePatched, whose
// provenance the returned facts carry and, when sp is live, sp records.
func (g *Engine) rolloutPoint(ctx context.Context, sp *trace.Span, c Checked, fractions []float64) (RolloutReport, itemFacts, error) {
	var f itemFacts
	patched, err := redundancy.PatchedCounts(c.spec, fractions)
	if err != nil {
		return RolloutReport{}, f, err
	}
	// Fractions that ceil to the same counts share one entry: the
	// quotient structure, not the raw fraction, determines the models.
	v, out, err := g.do(ctx, sp, c, patched, &g.rolloutSolves, &g.rolloutHits,
		func() (entry, error) {
			r, p, err := g.eval.EvaluatePatched(ctx, c.spec, patched)
			f.prov = p
			if err == nil {
				recordProvenance(sp, p)
			}
			return rolloutEntry(r), err
		})
	f.cache = out
	if err != nil {
		return RolloutReport{}, f, err
	}
	return v.rollout(0, append([]float64(nil), fractions...), patched), f, nil
}

// RolloutSweep expands the schedule for the design and evaluates every
// point on the worker pool, streaming reports to fn in completion
// order, each with its point's schedule index as Step, and returns the
// number of points. fn runs on a single collector goroutine; returning
// an error cancels the sweep. progress (optional) runs there too after
// every completed point. The whole sweep runs under one
// "rollout.sweep" span, which carries the aggregate of its points, as
// design sweeps do.
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
		sp.SetAttr("design", spanName(spec))
		sp.SetAttr("points", len(points))
	}
	defer func() { sp.EndErr(err) }()
	err = stream(ctx, g, sp, points, progress,
		func(fr []float64) (RolloutReport, itemFacts, error) {
			r, f, err := g.rolloutPoint(ctx, nil, c, fr)
			if err != nil {
				err = fmt.Errorf("engine: rollout point %v: %w", fr, err)
			}
			return r, f, err
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
