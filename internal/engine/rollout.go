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
	if spec.Name == "" {
		spec.Name = spec.CanonicalName()
	}
	return g.evaluateRolloutTraced(ctx, spec, fractions,
		trace.Attr{Key: "design", Value: spec.Name})
}

// evaluateRolloutTraced opens the "engine.evaluate" span with the
// caller's attributes — RolloutSweep adds per-point queue wait.
func (g *Engine) evaluateRolloutTraced(ctx context.Context, spec paperdata.DesignSpec, fractions []float64, attrs ...trace.Attr) (res RolloutReport, err error) {
	ctx, sp := trace.Start(ctx, "engine.evaluate", attrs...)
	defer func() { sp.EndErr(err) }()
	sp.SetAttr("rollout", true)

	// PatchedCounts validates the spec before converting the fractions:
	// the point's one validation, since the solve takes the counts.
	patched, err := redundancy.PatchedCounts(spec, fractions)
	if err != nil {
		return RolloutReport{}, err
	}
	// Fractions that ceil to the same counts share one entry: the
	// quotient structure, not the raw fraction, determines the models.
	v, err := g.do(ctx, sp, spec, patched, &g.rolloutSolves, &g.rolloutHits,
		func() (entry, error) {
			r, err := g.eval.EvaluatePatched(ctx, spec, patched)
			return rolloutEntry(r), err
		})
	if err != nil {
		return RolloutReport{}, err
	}
	return v.rollout(0, append([]float64(nil), fractions...), patched), nil
}

// RolloutSweep evaluates every point of a rollout schedule on the
// worker pool, streaming reports to fn in completion order, each with
// its point's schedule index as Step. fn runs on a single collector
// goroutine; returning an error cancels the sweep. progress (optional)
// runs there too after every completed point. The whole sweep runs
// under a "rollout.sweep" span; each point's evaluate span carries its
// queue wait, like design sweeps.
func (g *Engine) RolloutSweep(ctx context.Context, spec paperdata.DesignSpec, points [][]float64, fn func(RolloutReport) error, progress func(done, total int)) (err error) {
	if err := spec.Validate(); err != nil {
		return err
	}
	if len(points) == 0 {
		return fmt.Errorf("engine: rollout sweep has no points")
	}
	if spec.Name == "" {
		spec.Name = spec.CanonicalName()
	}
	ctx, sp := trace.Start(ctx, "rollout.sweep",
		trace.Attr{Key: "design", Value: spec.Name},
		trace.Attr{Key: "points", Value: len(points)})
	defer func() { sp.EndErr(err) }()
	return stream(ctx, g, points, progress,
		func(fr []float64, wait trace.Attr) (RolloutReport, error) {
			r, err := g.evaluateRolloutTraced(ctx, spec, fr, trace.Attr{Key: "design", Value: spec.Name}, wait)
			if err != nil {
				err = fmt.Errorf("engine: rollout point %v: %w", fr, err)
			}
			return r, err
		},
		func(step int, r RolloutReport) error {
			r.Step = step
			return fn(r)
		})
}
