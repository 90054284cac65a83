// Package oracle holds the slow, independent solvers that tests pin the
// served fast paths to: the paper's whole-network SRN, the unmemoized
// rollout solve, a Monte-Carlo simulator of SRNs and the nets' place
// invariants. No serving package imports it (callers_test.go enforces
// this), so none of it is linked into redpatchd or paper-repro.
package oracle

import (
	"fmt"

	"redpatch/internal/availability"
	"redpatch/internal/ctmc"
	"redpatch/internal/srn"
)

// BuildNetworkSRN constructs the upper-layer SRN of the paper's Fig. 4:
// per tier an up-place initially holding N tokens and a down place, with a
// marking-dependent patch transition (rate lambda_eq * #up, as the paper
// specifies) and a recovery transition at rate mu_eq * #down, every down
// server recovering on its own clock. It returns the net and the
// up-places per tier in input order.
func BuildNetworkSRN(nm availability.NetworkModel) (*srn.Net, []*srn.Place, error) {
	if err := nm.Validate(); err != nil {
		return nil, nil, err
	}
	n := srn.New("network")
	ups := make([]*srn.Place, len(nm.Tiers))
	for i, t := range nm.Tiers {
		t := t
		up := n.AddPlace("P"+t.Name+"up", t.N)
		down := n.AddPlace("P"+t.Name+"d", 0)
		ups[i] = up
		if t.LambdaEq == 0 {
			continue // tier never patches
		}
		n.AddTimedTransition("T"+t.Name+"d", 0).From(up).To(down).
			WithRateFunc(func(m srn.Marking) float64 { return t.LambdaEq * float64(m.Tokens(up)) })
		n.AddTimedTransition("T"+t.Name+"up", 0).From(down).To(up).
			WithRateFunc(func(m srn.Marking) float64 { return t.MuEq * float64(m.Tokens(down)) })
	}
	return n, ups, nil
}

// COAReward generalizes the paper's Table VI reward function: a marking
// earns (#servers up / #servers total) when every logical tier (group)
// meets its quorum (by default one server up), and zero otherwise (the
// end-to-end service is down, so no capacity is delivered). With
// homogeneous tiers and default quorums this reduces to Table VI exactly.
func COAReward(nm availability.NetworkModel, ups []*srn.Place) srn.RewardFunc {
	total := float64(nm.TotalServers())
	groups, quorums := nm.Groups()
	return func(m srn.Marking) float64 {
		upCount := 0
		for g, idxs := range groups {
			groupUp := 0
			for _, i := range idxs {
				groupUp += m.Tokens(ups[i])
			}
			if groupUp < quorums[g] {
				return 0
			}
			upCount += groupUp
		}
		return float64(upCount) / total
	}
}

// SolveNetworkSRN builds the upper-layer SRN, generates its CTMC, solves
// it, and evaluates COA and the auxiliary availability measures — the
// paper's original pipeline, kept as the oracle of the factored solver.
func SolveNetworkSRN(nm availability.NetworkModel) (availability.NetworkSolution, error) {
	net, ups, err := BuildNetworkSRN(nm)
	if err != nil {
		return availability.NetworkSolution{}, err
	}
	ss, err := net.Generate(srn.GenerateOptions{})
	if err != nil {
		return availability.NetworkSolution{}, err
	}
	pi, err := ss.SteadyState(ctmc.SolveOptions{})
	if err != nil {
		return availability.NetworkSolution{}, err
	}
	sol := availability.NetworkSolution{States: ss.NumTangible(), TierAllUp: make(map[string]float64, len(nm.Tiers))}
	sol.COA, err = ss.ExpectedReward(pi, COAReward(nm, ups))
	if err != nil {
		return availability.NetworkSolution{}, err
	}
	groups, quorums := nm.Groups()
	sol.ServiceAvailability, err = ss.Probability(pi, func(m srn.Marking) bool {
		for g, idxs := range groups {
			groupUp := 0
			for _, i := range idxs {
				groupUp += m.Tokens(ups[i])
			}
			if groupUp < quorums[g] {
				return false
			}
		}
		return true
	})
	if err != nil {
		return availability.NetworkSolution{}, err
	}
	for i, t := range nm.Tiers {
		p := ups[i]
		want := t.N
		sol.TierAllUp[t.Name], err = ss.Probability(pi, func(m srn.Marking) bool { return m.Tokens(p) == want })
		if err != nil {
			return availability.NetworkSolution{}, err
		}
	}
	return sol, nil
}

// SolveNetworkRollout solves the upper-layer model mid-rollout by the
// factored path without the evaluator's memos: one mixed-version
// birth–death factor per tier, with patched[i] servers of tier i on the
// patch cycle, composed by ComposeNetwork exactly as the atomic factors
// are. Exact up to floating point.
func SolveNetworkRollout(nm availability.NetworkModel, patched []int) (availability.NetworkSolution, error) {
	if err := nm.Validate(); err != nil {
		return availability.NetworkSolution{}, err
	}
	if len(patched) != len(nm.Tiers) {
		return availability.NetworkSolution{}, fmt.Errorf("oracle: %d patched counts for %d tiers", len(patched), len(nm.Tiers))
	}
	factors := make([]availability.TierFactor, len(nm.Tiers))
	for i, t := range nm.Tiers {
		f, err := availability.SolveTierFactorRollout(t, patched[i])
		if err != nil {
			return availability.NetworkSolution{}, err
		}
		factors[i] = f
	}
	return availability.ComposeNetwork(nm, factors)
}
