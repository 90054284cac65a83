package availability

import (
	"fmt"
	"math"
	"slices"

	"redpatch/internal/mathx"
)

// This file implements the factored upper-layer solver. Every server
// patches and recovers on its own clock, so the tiers of the network SRN
// are statistically independent birth–death chains: the joint generator is the Kronecker sum of the per-tier
// generators and the joint steady state is the product of the per-tier
// solutions. Instead of generating the (n_1+1)*...*(n_k+1) product chain
// and eliminating it — the paper pipeline's scalability wall — we solve
// each tier's (n+1)-state chain in O(n), convolve tiers into logical
// groups, and assemble COA and service availability from the group
// distributions; a tier's all-up probability is its factor's PMF[N].
// The SRN path (internal/oracle's SolveNetworkSRN) remains as the
// cross-validation oracle for this one.

// TierFactor is the steady-state solution of one tier's birth–death
// chain: the distribution of the number of servers up.
type TierFactor struct {
	// PMF[k] = P(exactly k of the tier's N servers are up), k = 0..N.
	PMF []float64
}

// N returns the tier size the factor was solved for.
func (f TierFactor) N() int { return len(f.PMF) - 1 }

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

// Workspace is the reusable scratch of ComposeNetwork: the tiers'
// group numbers, the two convolution buffers and the per-group sums.
// The zero value is ready to use. A workspace serves one composition
// at a time; a caller evaluating designs one after another reuses one
// and composes without allocating.
type Workspace struct {
	group               []int
	pmf, next           []float64
	quorumOK, upGivenOK []float64
	terms               []float64
}

// ComposeNetwork validates nm and assembles the NetworkSolution from
// per-tier factors, one per tier of nm in order, in ws's scratch (nil
// composes in fresh scratch). Logical groups convolve their members'
// up-count distributions in tier order; quorums apply per group exactly
// as in the SRN reward. States reports the size the product-form CTMC
// would have had, so callers comparing against the SRN path see the
// same state-space accounting. The solution holds nothing of ws.
func ComposeNetwork(nm NetworkModel, factors []TierFactor, ws *Workspace) (NetworkSolution, error) {
	if err := nm.Validate(); err != nil {
		return NetworkSolution{}, err
	}
	return ComposeValid(nm, factors, ws)
}

// ComposeValid is ComposeNetwork for a model Validate accepts, which it
// does not check again: a caller composing many models from one
// validated template — the same tiers at other sizes — validates the
// template once. The factors must still match the tiers' sizes.
func ComposeValid(nm NetworkModel, factors []TierFactor, ws *Workspace) (NetworkSolution, error) {
	if len(factors) != len(nm.Tiers) {
		return NetworkSolution{}, fmt.Errorf("availability: %d tier factors for %d tiers", len(factors), len(nm.Tiers))
	}
	for i, t := range nm.Tiers {
		if factors[i].N() != t.N {
			return NetworkSolution{}, fmt.Errorf("availability: tier %s factor solved for %d servers, tier has %d", t.Name, factors[i].N(), t.N)
		}
	}
	if ws == nil {
		ws = new(Workspace)
	}

	sol := NetworkSolution{Factored: true, States: productStates(nm)}
	total := float64(nm.TotalServers())
	var groups int
	ws.group, groups = groupsOf(ws.group, nm)
	quorumOK := ws.quorumOK[:0]   // P(up_g >= q_g)
	upGivenOK := ws.upGivenOK[:0] // E[up_g * 1{up_g >= q_g}]
	pmf, next := ws.pmf, ws.next
	for g := range groups {
		pmf = append(pmf[:0], 1) // up-count distribution of the group so far
		q := 0                   // the group's quorum, read at its first member
		for i, t := range nm.Tiers {
			if ws.group[i] != g {
				continue
			}
			if q == 0 {
				q = nm.quorumOf(t.group())
			}
			next = convolve(next[:0], pmf, factors[i].PMF)
			pmf, next = next, pmf
		}
		var ok, up float64
		for k := q; k < len(pmf); k++ {
			ok += pmf[k]
			up += float64(k) * pmf[k]
		}
		quorumOK = append(quorumOK, ok)
		upGivenOK = append(upGivenOK, up)
	}
	ws.pmf, ws.next = pmf, next

	sol.ServiceAvailability = 1
	for _, p := range quorumOK {
		sol.ServiceAvailability *= p
	}
	terms := ws.terms[:0]
	for g := range groups {
		term := upGivenOK[g]
		for h := range groups {
			if h != g {
				term *= quorumOK[h]
			}
		}
		terms = append(terms, term)
	}
	sol.COA = mathx.KahanSum(terms) / total
	ws.quorumOK, ws.upGivenOK, ws.terms = quorumOK, upGivenOK, terms
	return sol, nil
}

// convolve appends to dst, which must not share memory with a or b,
// the distribution of the sum of two independent nonnegative integer
// variables with the given PMFs.
func convolve(dst, a, b []float64) []float64 {
	n := len(a) + len(b) - 1
	dst = slices.Grow(dst, n)[:n]
	clear(dst)
	for i, pa := range a {
		if pa == 0 {
			continue
		}
		for j, pb := range b {
			dst[i+j] += pa * pb
		}
	}
	return dst
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
