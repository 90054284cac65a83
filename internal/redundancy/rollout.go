package redundancy

import (
	"context"
	"fmt"
	"math"

	"redpatch/internal/harm"
	"redpatch/internal/paperdata"
)

// This file evaluates designs mid-rollout: a rollout point assigns each
// tier group a patched fraction, splitting its replica class into a
// patched and an unpatched sub-class. Security evaluates on the
// sub-classed quotient (paperdata.FoldRollout probes the memo;
// paperdata.SpecRolloutQuotient and harm.BuildFactoredRollout build a
// missing model), availability on mixed-version tier factors
// (availability.SolveTierFactorRollout) — both still factored, so
// sweeping a whole rollout schedule costs microseconds per point.
// The f=0 and f=1 endpoints reproduce the atomic Result's Before and
// After sides bit for bit (TestRolloutDegenerateEndpoints).

// Rollout strategy names for RolloutSchedule.Strategy.
const (
	// RolloutCustom evaluates the explicit Fractions sequence.
	RolloutCustom = "custom"
	// RolloutOneShot jumps every tier from 0 to 1 in one step.
	RolloutOneShot = "one-shot"
	// RolloutRolling ramps every tier uniformly over Steps equal waves.
	RolloutRolling = "rolling"
	// RolloutBlueGreen flips whole tiers to 1 one at a time, in Order.
	RolloutBlueGreen = "blue-green"
	// RolloutCanary patches a CanaryFraction first wave, then ramps the
	// remainder over Steps waves.
	RolloutCanary = "canary"
)

// RolloutSchedule describes a rollout as a sequence of per-tier patched
// fractions — the planner vocabulary. One-shot, rolling-N, blue-green
// and canary-then-ramp are all special cases of a fraction sequence;
// Points expands whichever is selected. Every expansion starts at the
// unpatched point (all zeros) and ends fully patched (all ones), so a
// schedule's frontier always brackets both atomic endpoints.
type RolloutSchedule struct {
	// Strategy selects the expansion; empty means RolloutCustom.
	Strategy string
	// Steps is the wave count for rolling and canary ramps (default 4).
	Steps int
	// CanaryFraction is the canary first-wave fraction (default 0.1).
	CanaryFraction float64
	// Order is the blue-green tier flip order, a permutation of the
	// spec's tier indices (default: spec order).
	Order []int
	// Fractions is the explicit point sequence for RolloutCustom, one
	// per-tier fraction vector per point.
	Fractions [][]float64
}

// maxRolloutSteps caps Steps for the rolling and canary ramps, which
// expand to one point per step: an unbounded count would overflow the
// point slice's size or exhaust memory before a point is evaluated.
const maxRolloutSteps = 1 << 16

// Points expands the schedule into per-tier fraction vectors for a
// design with the given tier count. A rolling or canary schedule may
// take at most 65,536 steps.
func (s RolloutSchedule) Points(tiers int) ([][]float64, error) {
	if tiers < 1 {
		return nil, fmt.Errorf("redundancy: rollout schedule needs at least one tier")
	}
	uniform := func(f float64) []float64 {
		out := make([]float64, tiers)
		for i := range out {
			out[i] = f
		}
		return out
	}
	steps := s.Steps
	if steps <= 0 {
		steps = 4
	}
	if steps > maxRolloutSteps && (s.Strategy == RolloutRolling || s.Strategy == RolloutCanary) {
		return nil, fmt.Errorf("redundancy: %s rollout schedule has %d steps, above the %d cap",
			s.Strategy, steps, maxRolloutSteps)
	}
	switch s.Strategy {
	case "", RolloutCustom:
		if len(s.Fractions) == 0 {
			return nil, fmt.Errorf("redundancy: custom rollout schedule has no fraction points")
		}
		out := make([][]float64, len(s.Fractions))
		for i, p := range s.Fractions {
			if len(p) != tiers {
				return nil, fmt.Errorf("redundancy: rollout point %d has %d fractions for %d tiers", i, len(p), tiers)
			}
			for j, f := range p {
				if math.IsNaN(f) || f < 0 || f > 1 {
					return nil, fmt.Errorf("redundancy: rollout point %d tier %d fraction %v outside [0,1]", i, j, f)
				}
			}
			out[i] = append([]float64(nil), p...)
		}
		return out, nil
	case RolloutOneShot:
		return [][]float64{uniform(0), uniform(1)}, nil
	case RolloutRolling:
		out := make([][]float64, steps+1)
		for i := 0; i <= steps; i++ {
			out[i] = uniform(float64(i) / float64(steps))
		}
		out[steps] = uniform(1) // exact endpoint regardless of division
		return out, nil
	case RolloutBlueGreen:
		order := s.Order
		if len(order) == 0 {
			order = make([]int, tiers)
			for i := range order {
				order[i] = i
			}
		}
		seen := make([]bool, tiers)
		for _, t := range order {
			if t < 0 || t >= tiers || seen[t] {
				return nil, fmt.Errorf("redundancy: blue-green order %v is not a permutation of %d tiers", order, tiers)
			}
			seen[t] = true
		}
		if len(order) != tiers {
			return nil, fmt.Errorf("redundancy: blue-green order %v is not a permutation of %d tiers", order, tiers)
		}
		out := [][]float64{uniform(0)}
		cur := uniform(0)
		for _, t := range order {
			cur = append([]float64(nil), cur...)
			cur[t] = 1
			out = append(out, cur)
		}
		return out, nil
	case RolloutCanary:
		c := s.CanaryFraction
		if c == 0 {
			c = 0.1
		}
		if math.IsNaN(c) || c <= 0 || c >= 1 {
			return nil, fmt.Errorf("redundancy: canary fraction %v outside (0,1)", c)
		}
		out := [][]float64{uniform(0), uniform(c)}
		for i := 1; i <= steps; i++ {
			f := c + (1-c)*float64(i)/float64(steps)
			if i == steps || f > 1 {
				f = 1 // exact endpoint regardless of rounding
			}
			out = append(out, uniform(f))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("redundancy: unknown rollout strategy %q", s.Strategy)
	}
}

// PatchedCounts converts per-tier rollout fractions into per-tier
// patched replica counts, one per spec.Tiers entry: ceil(f*n), so any
// non-zero fraction patches at least one replica and fraction 1 patches
// all of them. Float noise is rounded away before the ceiling: a
// schedule step computed as 0.6000000000000001 patches 3 of 5
// replicas, not 4.
func PatchedCounts(spec paperdata.DesignSpec, fractions []float64) ([]int, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(fractions) != len(spec.Tiers) {
		return nil, fmt.Errorf("redundancy: %d rollout fractions for %d tiers", len(fractions), len(spec.Tiers))
	}
	out := make([]int, len(fractions))
	for i, f := range fractions {
		if math.IsNaN(f) || f < 0 || f > 1 {
			return nil, fmt.Errorf("redundancy: tier %d rollout fraction %v outside [0,1]", i, f)
		}
		n := spec.Tiers[i].Replicas
		x := f * float64(n)
		if r := math.Round(x); math.Abs(x-r) < fractionNoise {
			x = r
		}
		p := min(int(math.Ceil(x)), n)
		if f > 0 && p == 0 {
			p = 1
		}
		out[i] = p
	}
	return out, nil
}

// fractionNoise is the distance from an integer below which a patched
// replica count f*n is float error, not a fraction of a replica.
const fractionNoise = 1e-9

// RolloutResult is the evaluation of one design at one rollout point.
type RolloutResult struct {
	// Spec is the design the point was evaluated for.
	Spec paperdata.DesignSpec
	// Fractions are the per-tier rollout fractions of the point.
	Fractions []float64
	// Patched are the per-tier patched replica counts (ceil(f*n)).
	Patched []int
	// Security holds the mixed-version security metrics: patched
	// replicas contribute their post-patch attack trees, unpatched ones
	// their pre-patch trees.
	Security harm.Metrics
	// COA is the capacity oriented availability mid-rollout: only the
	// patched sub-populations cycle through patch windows.
	COA float64
	// ServiceAvailability is P(at least one server up in every tier).
	ServiceAvailability float64
}

// EvaluatePatched evaluates one design at one rollout point given by
// per-tier patched replica counts that PatchedCounts produced for spec
// (aligned with spec.Tiers). Both axes run factored through the same
// memos as atomic evaluations: security on the sub-classed rollout
// quotient with the model memoized per rollout structure key,
// availability by composing mixed-version tier factors memoized per
// (stack, n, patched). The all-zero and all-one points therefore reuse
// the models an atomic evaluation of the design built. The context
// carries tracing only; provenance lands as attributes on the caller's
// span exactly like the atomic path. It validates neither the spec nor
// the counts, so a caller that already converted the fractions (the
// engine, for its memo key) validates each point once. The result's
// Fractions is nil and Patched aliases patched.
func (e *Evaluator) EvaluatePatched(ctx context.Context, spec paperdata.DesignSpec, patched []int) (RolloutResult, error) {
	var keyb [keyBuf]byte
	var countb [classBuf]int
	key, counts := paperdata.FoldRollout(keyb[:0], countb[:0], spec, patched)
	model, hit, err := e.securityModel(ctx, key, func() (paperdata.RolloutQuotient, error) {
		return paperdata.SpecRolloutQuotient(spec, patched)
	})
	if err != nil {
		return RolloutResult{}, err
	}
	recordSecurity(ctx, hit)
	res := RolloutResult{Spec: spec, Patched: patched}
	if res.Security, err = model.Evaluate(counts); err != nil {
		return RolloutResult{}, err
	}

	nm, stacks, err := e.networkModelFor(spec)
	if err != nil {
		return RolloutResult{}, err
	}
	// nm.Tiers follows the spec's logical order; patched follows
	// spec.Tiers order.
	var orderb, logicalb [classBuf]int
	logical := logicalb[:0]
	for _, i := range spec.AppendLogicalOrder(orderb[:0]) {
		logical = append(logical, patched[i])
	}
	sol, err := e.solveNetwork(ctx, nm, stacks, logical)
	if err != nil {
		return RolloutResult{}, err
	}
	res.COA = sol.COA
	res.ServiceAvailability = sol.ServiceAvailability
	return res, nil
}
