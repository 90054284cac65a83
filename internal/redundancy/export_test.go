package redundancy

import (
	"context"

	"redpatch/internal/availability"
	"redpatch/internal/harm"
	"redpatch/internal/paperdata"
)

// Oracle hooks for the external test package, which needs them next to
// internal/engine (an in-package test cannot import the engine: it
// imports this package).

// EquivalenceSpecs is the design table the factored-security suites
// validate over.
var EquivalenceSpecs = equivalenceSpecs

// SecurityExpanded is the replica-expanded security oracle.
func (e *Evaluator) SecurityExpanded(spec paperdata.DesignSpec) (before, after harm.Metrics, err error) {
	return e.securityExpanded(spec)
}

// securityExpanded evaluates the security metrics on the full
// replica-expanded HARM — the original pipeline, kept as the oracle the
// factored path is cross-validated against
// (TestFactoredSecurityEquivalence, FuzzFastPathMatchesOracles). Every
// evaluation enumerates the expanded model; no served path reaches it.
func (e *Evaluator) securityExpanded(spec paperdata.DesignSpec) (before, after harm.Metrics, err error) {
	h, err := e.buildHARM(spec)
	if err != nil {
		return harm.Metrics{}, harm.Metrics{}, err
	}
	if before, err = h.Evaluate(e.evalOpts); err != nil {
		return harm.Metrics{}, harm.Metrics{}, err
	}
	patched, err := h.Patched(e.keepLeaf)
	if err != nil {
		return harm.Metrics{}, harm.Metrics{}, err
	}
	if after, err = patched.Evaluate(e.evalOpts); err != nil {
		return harm.Metrics{}, harm.Metrics{}, err
	}
	return before, after, nil
}

// RolloutSecurityExpanded is the mixed-version expanded security oracle
// at per-tier patched counts.
func (e *Evaluator) RolloutSecurityExpanded(spec paperdata.DesignSpec, patched []int) (harm.Metrics, error) {
	return rolloutSecurityExpanded(e, spec, patched)
}

// FactoredNetwork is the full factored availability solution the
// evaluator serves a design's COA from, with the network model and the
// tier factors it composed.
func (e *Evaluator) FactoredNetwork(ctx context.Context, spec paperdata.DesignSpec) (availability.NetworkModel, []availability.TierFactor, availability.NetworkSolution, error) {
	s, err := e.shapeOf(spec)
	if err != nil {
		return availability.NetworkModel{}, nil, availability.NetworkSolution{}, err
	}
	var ws workspace
	sol, err := s.compose(ctx, new(Provenance), &ws, spec, nil)
	return availability.NetworkModel{Tiers: ws.tiers}, ws.factors, sol, err
}

// networkModelFor is the upper-layer model the evaluator solves a valid
// spec's availability over.
func (e *Evaluator) networkModelFor(spec paperdata.DesignSpec) (availability.NetworkModel, error) {
	nm, _, _, err := e.FactoredNetwork(context.Background(), spec)
	return nm, err
}

// EvaluateRollout is PatchedCounts plus EvaluatePatched: one design at
// one rollout point given by per-tier patched fractions, through the
// evaluator's memos but without the engine's. The rollout suites and
// FuzzFastPathMatchesOracles drive the unmemoized rollout path through
// it.
func (e *Evaluator) EvaluateRollout(ctx context.Context, spec paperdata.DesignSpec, fractions []float64) (RolloutResult, error) {
	patched, err := PatchedCounts(spec, fractions)
	if err != nil {
		return RolloutResult{}, err
	}
	res, _, err := e.EvaluatePatched(ctx, spec, patched)
	if err != nil {
		return RolloutResult{}, err
	}
	res.Fractions = append([]float64(nil), fractions...)
	return res, nil
}

// Shapes is the number of shapes the evaluator has memoized.
func (e *Evaluator) Shapes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.shapes)
}
