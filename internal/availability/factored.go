package availability

import (
	"fmt"
	"math"

	"redpatch/internal/mathx"
)

// This file implements the factored upper-layer solver. Every server
// patches and recovers on its own clock, so the tiers of the network SRN
// are statistically independent birth–death chains: the joint generator is the Kronecker sum of the per-tier
// generators and the joint steady state is the product of the per-tier
// solutions. Instead of generating the (n_1+1)*...*(n_k+1) product chain
// and eliminating it — the paper pipeline's scalability wall — we solve
// each tier's (n+1)-state chain in O(n), convolve tiers into logical
// groups, and assemble COA, service availability and the per-tier
// measures from the group distributions. The SRN path (SolveNetworkSRN)
// remains as the cross-validation oracle for this one.

// TierFactor is the steady-state solution of one tier's birth–death
// chain: the distribution of the number of servers up.
type TierFactor struct {
	// PMF[k] = P(exactly k of the tier's N servers are up), k = 0..N.
	PMF []float64
}

// N returns the tier size the factor was solved for.
func (f TierFactor) N() int { return len(f.PMF) - 1 }

// AllUp returns P(every server of the tier up).
func (f TierFactor) AllUp() float64 {
	if len(f.PMF) == 0 {
		return 0
	}
	return f.PMF[len(f.PMF)-1]
}

// SolveTierFactor solves the (N+1)-state birth–death chain of one tier.
// With k servers up, the chain moves down at rate lambda*k and up at
// rate mu*(N-k); detailed balance gives the
// product form pi_{k+1} = pi_k * mu(N-k)/(lambda(k+1)), which normalizes
// to the binomial distribution with per-server availability
// a = mu/(lambda+mu) — each server is an independent two-state chain.
// The binomial parameterization is used directly because it stays finite
// for arbitrary rate ratios where the raw product-form weights overflow.
func SolveTierFactor(t Tier) (TierFactor, error) {
	if err := t.Validate(); err != nil {
		return TierFactor{}, err
	}
	pmf := make([]float64, t.N+1)
	if t.LambdaEq == 0 {
		pmf[t.N] = 1 // a tier that never patches is always fully up
		return TierFactor{PMF: pmf}, nil
	}
	a := t.MuEq / (t.LambdaEq + t.MuEq)
	for k := 0; k <= t.N; k++ {
		pmf[k] = mathx.Binomial(t.N, k) * pow(a, k) * pow(1-a, t.N-k)
	}
	return TierFactor{PMF: pmf}, nil
}

// ComposeNetwork assembles the full NetworkSolution from per-tier
// factors, one per tier of nm in order. Logical groups convolve their
// members' up-count distributions; quorums apply per group exactly as in
// the SRN reward. States reports the size the product-form CTMC would
// have had, so callers comparing against the SRN path see the same
// state-space accounting.
func ComposeNetwork(nm NetworkModel, factors []TierFactor) (NetworkSolution, error) {
	if err := nm.Validate(); err != nil {
		return NetworkSolution{}, err
	}
	if len(factors) != len(nm.Tiers) {
		return NetworkSolution{}, fmt.Errorf("availability: %d tier factors for %d tiers", len(factors), len(nm.Tiers))
	}
	for i, t := range nm.Tiers {
		if factors[i].N() != t.N {
			return NetworkSolution{}, fmt.Errorf("availability: tier %s factor solved for %d servers, tier has %d", t.Name, factors[i].N(), t.N)
		}
	}

	sol := NetworkSolution{
		Factored:  true,
		States:    productStates(nm),
		TierAllUp: make(map[string]float64, len(nm.Tiers)),
	}
	for i, t := range nm.Tiers {
		sol.TierAllUp[t.Name] = factors[i].AllUp()
	}

	total := float64(nm.TotalServers())
	groups := groupIndices(nm)
	quorumOK := make([]float64, len(groups))  // P(up_g >= q_g)
	upGivenOK := make([]float64, len(groups)) // E[up_g * 1{up_g >= q_g}]
	for g, idxs := range groups {
		pmf := []float64{1} // up-count distribution of the group so far
		for _, i := range idxs {
			pmf = convolve(pmf, factors[i].PMF)
		}
		q := nm.quorumOf(nm.Tiers[idxs[0]].group())
		for k := q; k < len(pmf); k++ {
			quorumOK[g] += pmf[k]
			upGivenOK[g] += float64(k) * pmf[k]
		}
	}

	sol.ServiceAvailability = 1
	for _, p := range quorumOK {
		sol.ServiceAvailability *= p
	}
	terms := make([]float64, len(groups))
	for g := range groups {
		term := upGivenOK[g]
		for h := range groups {
			if h != g {
				term *= quorumOK[h]
			}
		}
		terms[g] = term
	}
	sol.COA = mathx.KahanSum(terms) / total
	return sol, nil
}

// convolve returns the distribution of the sum of two independent
// nonnegative integer variables with the given PMFs.
func convolve(a, b []float64) []float64 {
	out := make([]float64, len(a)+len(b)-1)
	for i, pa := range a {
		if pa == 0 {
			continue
		}
		for j, pb := range b {
			out[i+j] += pa * pb
		}
	}
	return out
}

// productStates returns the tangible state count of the product chain
// the tiers would generate, saturating at MaxInt. A patching tier spans
// n+1 up-counts; a never-patching tier has no transitions, so the SRN
// reaches only its all-up marking and it contributes a single state.
func productStates(nm NetworkModel) int {
	states := 1
	for _, t := range nm.Tiers {
		n := 1
		if t.LambdaEq > 0 {
			n = t.N + 1
		}
		if states > math.MaxInt/n {
			return math.MaxInt
		}
		states *= n
	}
	return states
}
