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
func (e *Evaluator) SecurityExpanded(ctx context.Context, spec paperdata.DesignSpec) (before, after harm.Metrics, err error) {
	return e.securityExpanded(ctx, spec)
}

// RolloutSecurityExpanded is the mixed-version expanded security oracle
// at per-tier patched counts.
func (e *Evaluator) RolloutSecurityExpanded(spec paperdata.DesignSpec, patched []int) (harm.Metrics, error) {
	return rolloutSecurityExpanded(e, spec, patched)
}

// FactoredNetwork is the full factored availability solution the
// evaluator serves a design's COA from.
func (e *Evaluator) FactoredNetwork(ctx context.Context, spec paperdata.DesignSpec) (availability.NetworkModel, availability.NetworkSolution, error) {
	nm, stacks, err := e.networkModelFor(spec)
	if err != nil {
		return availability.NetworkModel{}, availability.NetworkSolution{}, err
	}
	sol, err := e.solveNetwork(ctx, nm, stacks, nil)
	return nm, sol, err
}
