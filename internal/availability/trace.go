package availability

import (
	"context"

	"redpatch/internal/trace"
)

// This file holds the context-threaded variants of the upper-layer
// solvers. Each wraps its untraced counterpart in a span so a request
// trace shows which solver ran and how long the solve took; with no
// tracer in the context they cost one nil check and delegate directly.
// Only genuinely expensive steps get a variant here — closed-form work
// (ComposeNetwork) is recorded by callers as span attributes instead.

// SolveTierFactorRolloutCtx is SolveTierFactorRollout under an
// "availability.tierfactor" span recording the tier size and the
// patched sub-population. Callers memoizing factors only reach it on a
// miss, so each span marks a genuinely new (stack, n, patched) solve.
func SolveTierFactorRolloutCtx(ctx context.Context, t Tier, patched int) (TierFactor, error) {
	_, sp := trace.Start(ctx, "availability.tierfactor",
		trace.Attr{Key: "n", Value: t.N},
		trace.Attr{Key: "patched", Value: patched})
	f, err := SolveTierFactorRollout(t, patched)
	sp.EndErr(err)
	return f, err
}
