package availability

import (
	"fmt"

	"redpatch/internal/mathx"
)

// This file extends the factored upper-layer solver to mixed-version
// tiers: during a rollout, only the sub-population of a tier already
// running the patched version participates in the patch/recovery cycle,
// while the not-yet-patched servers have nothing to install and stay up.
// The tier's up-count distribution is therefore the patched
// sub-population's binomial shifted up by the always-up remainder —
// still a product-form factor, so ComposeNetwork applies unchanged and
// availability during a rolling window stays closed-form.

// SolveTierFactorRollout solves the up-count distribution of a tier
// mid-rollout: patched of the tier's N servers run the patched version
// and cycle through patch windows at the tier's aggregated rates; the
// remaining N-patched servers still run the old version and, patching
// nothing, are always up. patched == N reproduces SolveTierFactor
// byte-identically (the fully-patched endpoint is the atomic model);
// patched == 0 is a point mass at N up (the untouched endpoint).
func SolveTierFactorRollout(t Tier, patched int) (TierFactor, error) {
	if err := t.Validate(); err != nil {
		return TierFactor{}, err
	}
	if patched < 0 || patched > t.N {
		return TierFactor{}, fmt.Errorf("availability: tier %s: %d patched servers of %d", t.Name, patched, t.N)
	}
	if patched == t.N {
		return SolveTierFactor(t)
	}
	pmf := make([]float64, t.N+1)
	if t.LambdaEq == 0 || patched == 0 {
		pmf[t.N] = 1 // nothing in the tier is patching: always fully up
		return TierFactor{PMF: pmf}, nil
	}
	a := t.MuEq / (t.LambdaEq + t.MuEq)
	base := t.N - patched // unpatched sub-population, permanently up
	for k := 0; k <= patched; k++ {
		pmf[base+k] = mathx.Binomial(patched, k) * pow(a, k) * pow(1-a, patched-k)
	}
	return TierFactor{PMF: pmf}, nil
}
