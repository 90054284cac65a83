package availability_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"redpatch/internal/availability"
	"redpatch/internal/mathx"
	"redpatch/internal/oracle"
)

// randomModel builds a random grouped network model: 1-3 logical groups,
// 1-2 member tiers each, replica counts 1-4, rates spanning never-patching
// tiers to fast patch clocks, and (sometimes) a non-default quorum.
func randomModel(rng *rand.Rand) availability.NetworkModel {
	var nm availability.NetworkModel
	groupSize := make(map[string]int)
	nGroups := 1 + rng.Intn(3)
	id := 0
	for g := 0; g < nGroups; g++ {
		group := "g" + string(rune('0'+g))
		members := 1 + rng.Intn(2)
		for m := 0; m < members; m++ {
			lambda := rng.Float64() * 0.05
			if rng.Intn(8) == 0 {
				lambda = 0 // never-patching tier
			}
			n := 1 + rng.Intn(4)
			nm.Tiers = append(nm.Tiers, availability.Tier{
				Name:     "t" + string(rune('0'+id)),
				Group:    group,
				N:        n,
				LambdaEq: lambda,
				MuEq:     0.3 + rng.Float64()*2.2,
			})
			groupSize[group] += n
			id++
		}
	}
	if rng.Intn(2) == 0 {
		// Raise one group's quorum above the default single server.
		group := "g" + string(rune('0'+rng.Intn(nGroups)))
		nm.Quorum = map[string]int{group: 1 + rng.Intn(groupSize[group])}
	}
	return nm
}

// solveFactored is the factored path as the evaluator runs it: one
// birth–death factor per tier, composed.
func solveFactored(nm availability.NetworkModel) (availability.NetworkSolution, error) {
	factors := make([]availability.TierFactor, len(nm.Tiers))
	for i, t := range nm.Tiers {
		f, err := availability.SolveTierFactor(t)
		if err != nil {
			return availability.NetworkSolution{}, err
		}
		factors[i] = f
	}
	return availability.ComposeNetwork(nm, factors)
}

// TestFactoredEquivalence is the correctness gate: across random
// tier counts, replica counts, rates, groups and quorums, the factored
// solution must agree with the SRN oracle on every NetworkSolution
// measure within 1e-9. CI runs it under the race detector.
func TestFactoredEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nm := randomModel(rng)
		fac, err := solveFactored(nm)
		if err != nil {
			t.Logf("seed %d: factored solve: %v", seed, err)
			return false
		}
		srn, err := oracle.SolveNetworkSRN(nm)
		if err != nil {
			t.Logf("seed %d: SRN solve: %v", seed, err)
			return false
		}
		if !fac.Factored || srn.Factored {
			t.Logf("seed %d: Factored flags wrong: %v/%v", seed, fac.Factored, srn.Factored)
			return false
		}
		if fac.States != srn.States {
			t.Logf("seed %d: states %d != %d", seed, fac.States, srn.States)
			return false
		}
		const tol = 1e-9
		if !mathx.AlmostEqual(fac.COA, srn.COA, tol) {
			t.Logf("seed %d: COA %.12f != %.12f", seed, fac.COA, srn.COA)
			return false
		}
		if !mathx.AlmostEqual(fac.ServiceAvailability, srn.ServiceAvailability, tol) {
			t.Logf("seed %d: service availability %.12f != %.12f",
				seed, fac.ServiceAvailability, srn.ServiceAvailability)
			return false
		}
		for _, tier := range nm.Tiers {
			if !mathx.AlmostEqual(fac.TierAllUp[tier.Name], srn.TierAllUp[tier.Name], tol) {
				t.Logf("seed %d: tier %s all-up %.12f != %.12f",
					seed, tier.Name, fac.TierAllUp[tier.Name], srn.TierAllUp[tier.Name])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFactoredEquivalencePaperDesigns pins the factored solver on the
// paper's own designs to the SRN oracle at full tolerance.
func TestFactoredEquivalencePaperDesigns(t *testing.T) {
	for _, counts := range []map[string]int{
		baseCounts,
		{"dns": 1, "web": 1, "app": 1, "db": 1},
		{"dns": 2, "web": 3, "app": 2, "db": 2},
	} {
		nm := paperTiers(t, counts)
		sol, err := solveFactored(nm)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := oracle.SolveNetworkSRN(nm)
		if err != nil {
			t.Fatal(err)
		}
		if !mathx.AlmostEqual(sol.COA, ref.COA, 1e-9) {
			t.Errorf("%v: factored COA %.12f != SRN %.12f", counts, sol.COA, ref.COA)
		}
		if !mathx.AlmostEqual(sol.ServiceAvailability, ref.ServiceAvailability, 1e-9) {
			t.Errorf("%v: factored service availability %.12f != SRN %.12f",
				counts, sol.ServiceAvailability, ref.ServiceAvailability)
		}
		for name := range ref.TierAllUp {
			if !mathx.AlmostEqual(sol.TierAllUp[name], ref.TierAllUp[name], 1e-9) {
				t.Errorf("%v: tier %s all-up %.12f != SRN %.12f",
					counts, name, sol.TierAllUp[name], ref.TierAllUp[name])
			}
		}
	}
}

func TestSolveTierFactor(t *testing.T) {
	f, err := availability.SolveTierFactor(availability.Tier{Name: "web", N: 3, LambdaEq: 1.0 / 720, MuEq: 1.7})
	if err != nil {
		t.Fatal(err)
	}
	if f.N() != 3 {
		t.Errorf("N = %d, want 3", f.N())
	}
	if sum := mathx.KahanSum(f.PMF); !mathx.AlmostEqual(sum, 1, 1e-12) {
		t.Errorf("PMF sums to %v, want 1", sum)
	}
	a := 1.7 / (1.7 + 1.0/720)
	if want := a * a * a; !mathx.AlmostEqual(f.AllUp(), want, 1e-12) {
		t.Errorf("AllUp = %v, want %v", f.AllUp(), want)
	}
	// A never-patching tier is deterministically all-up.
	f0, err := availability.SolveTierFactor(availability.Tier{Name: "static", N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if f0.AllUp() != 1 || f0.PMF[0] != 0 {
		t.Errorf("never-patching factor = %v, want [0 0 1]", f0.PMF)
	}
	// Invalid tiers are rejected.
	if _, err := availability.SolveTierFactor(availability.Tier{Name: "bad", N: 0}); err == nil {
		t.Error("zero-size tier should fail")
	}
}

func TestComposeNetworkValidation(t *testing.T) {
	nm := availability.NetworkModel{Tiers: []availability.Tier{{Name: "web", N: 2, LambdaEq: 0.01, MuEq: 1}}}
	good, err := availability.SolveTierFactor(nm.Tiers[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := availability.ComposeNetwork(nm, nil); err == nil {
		t.Error("missing factors should fail")
	}
	if _, err := availability.ComposeNetwork(nm, []availability.TierFactor{{PMF: []float64{1}}}); err == nil {
		t.Error("size-mismatched factor should fail")
	}
	sol, err := availability.ComposeNetwork(nm, []availability.TierFactor{good})
	if err != nil {
		t.Fatal(err)
	}
	if sol.States != 3 {
		t.Errorf("states = %d, want 3", sol.States)
	}
}

// TestFactoredExtremeRates guards the binomial parameterization: rate
// ratios spanning nine orders of magnitude and larger tiers must stay
// finite, normalized and in agreement with the closed-form COA of two
// single-tier groups: COA = sum_g N_g a_g prod_{h != g} (1-(1-a_h)^N_h) / total.
func TestFactoredExtremeRates(t *testing.T) {
	nm := availability.NetworkModel{Tiers: []availability.Tier{
		{Name: "fast", N: 40, LambdaEq: 1e3, MuEq: 1e6},
		{Name: "slow", N: 2, LambdaEq: 1e-3, MuEq: 1e-1},
	}}
	sol, err := solveFactored(nm)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(sol.COA) || sol.COA < 0 || sol.COA > 1 {
		t.Errorf("COA = %v outside [0,1]", sol.COA)
	}
	var mean, up [2]float64
	for g, tier := range nm.Tiers {
		a := tier.MuEq / (tier.LambdaEq + tier.MuEq)
		mean[g] = float64(tier.N) * a
		up[g] = 1 - math.Pow(1-a, float64(tier.N))
	}
	cf := (mean[0]*up[1] + mean[1]*up[0]) / float64(nm.TotalServers())
	if !mathx.AlmostEqual(sol.COA, cf, 1e-9) {
		t.Errorf("factored COA %v != closed form %v", sol.COA, cf)
	}
}

// TestProductStatesSaturates: a model too large to enumerate must report
// MaxInt instead of a wrapped product.
func TestProductStatesSaturates(t *testing.T) {
	var nm availability.NetworkModel
	for i := 0; i < 16; i++ {
		nm.Tiers = append(nm.Tiers, availability.Tier{
			Name: "t" + string(rune('a'+i)), N: 1 << 20, LambdaEq: 0.01, MuEq: 1,
		})
	}
	if got := availability.ProductStates(nm); got != math.MaxInt {
		t.Errorf("productStates = %d, want MaxInt", got)
	}
}
