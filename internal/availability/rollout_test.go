package availability_test

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"redpatch/internal/availability"
	"redpatch/internal/mathx"
	"redpatch/internal/oracle"
)

func TestSolveTierFactorRollout(t *testing.T) {
	tier := availability.Tier{Name: "web", N: 4, LambdaEq: 1.0 / 720, MuEq: 1.7}
	for patched := 0; patched <= tier.N; patched++ {
		f, err := availability.SolveTierFactorRollout(tier, patched)
		if err != nil {
			t.Fatalf("patched=%d: %v", patched, err)
		}
		if f.N() != tier.N {
			t.Errorf("patched=%d: N = %d, want %d", patched, f.N(), tier.N)
		}
		if sum := mathx.KahanSum(f.PMF); !mathx.AlmostEqual(sum, 1, 1e-12) {
			t.Errorf("patched=%d: PMF sums to %v, want 1", patched, sum)
		}
		// Fewer than N-patched servers can never be up: the unpatched
		// sub-population has nothing to install.
		for k := 0; k < tier.N-patched; k++ {
			if f.PMF[k] != 0 {
				t.Errorf("patched=%d: PMF[%d] = %v, want 0", patched, k, f.PMF[k])
			}
		}
	}
	// The endpoints are the atomic models: patched == N must be
	// byte-identical to SolveTierFactor, patched == 0 a point mass at N.
	full, err := availability.SolveTierFactorRollout(tier, tier.N)
	if err != nil {
		t.Fatal(err)
	}
	atomic, err := availability.SolveTierFactor(tier)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, atomic) {
		t.Errorf("patched=N factor %v != atomic %v", full.PMF, atomic.PMF)
	}
	zero, err := availability.SolveTierFactorRollout(tier, 0)
	if err != nil {
		t.Fatal(err)
	}
	if zero.AllUp() != 1 || zero.PMF[tier.N] != 1 {
		t.Errorf("patched=0 factor = %v, want point mass at %d", zero.PMF, tier.N)
	}
	// Out-of-range patched counts and invalid tiers are rejected.
	if _, err := availability.SolveTierFactorRollout(tier, -1); err == nil {
		t.Error("negative patched count should fail")
	}
	if _, err := availability.SolveTierFactorRollout(tier, tier.N+1); err == nil {
		t.Error("patched > N should fail")
	}
	if _, err := availability.SolveTierFactorRollout(availability.Tier{Name: "bad", N: 0}, 0); err == nil {
		t.Error("zero-size tier should fail")
	}
}

// splitRollout is the oracle construction: a tier with p of n servers
// patched is exactly a two-tier split in the same group — p servers on
// the patch cycle plus n-p never-patching (always-up) servers — so the
// split model solved by the atomic factored path must agree with the
// mixed-version factor on every network measure.
func splitRollout(nm availability.NetworkModel, patched []int) availability.NetworkModel {
	split := availability.NetworkModel{Quorum: nm.Quorum}
	for i, tier := range nm.Tiers {
		p := patched[i]
		if p > 0 {
			cycling := tier
			cycling.Name = tier.Name + "_patched"
			cycling.N = p
			split.Tiers = append(split.Tiers, cycling)
		}
		if p < tier.N {
			static := tier
			static.Name = tier.Name + "_old"
			static.N = tier.N - p
			static.LambdaEq = 0 // nothing to install: always up
			split.Tiers = append(split.Tiers, static)
		}
	}
	return split
}

// TestFactoredEquivalenceRollout is the mixed-version correctness gate:
// across random grouped models, rates, quorums and patched counts, the
// rollout factors composed over the original tiers must agree with the
// split-tier oracle solved by the already-validated atomic factored path
// within 1e-9. CI runs it under the race detector alongside the atomic
// equivalence gate.
func TestFactoredEquivalenceRollout(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nm := randomModel(rng)
		patched := make([]int, len(nm.Tiers))
		for i, tier := range nm.Tiers {
			patched[i] = rng.Intn(tier.N + 1)
		}
		mixed, err := oracle.SolveNetworkRollout(nm, patched)
		if err != nil {
			t.Logf("seed %d: rollout solve: %v", seed, err)
			return false
		}
		ref, err := solveFactored(splitRollout(nm, patched))
		if err != nil {
			t.Logf("seed %d: split oracle solve: %v", seed, err)
			return false
		}
		const tol = 1e-9
		if !mathx.AlmostEqual(mixed.COA, ref.COA, tol) {
			t.Logf("seed %d: patched %v: COA %.12f != %.12f", seed, patched, mixed.COA, ref.COA)
			return false
		}
		if !mathx.AlmostEqual(mixed.ServiceAvailability, ref.ServiceAvailability, tol) {
			t.Logf("seed %d: patched %v: service availability %.12f != %.12f",
				seed, patched, mixed.ServiceAvailability, ref.ServiceAvailability)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRolloutEndpointsAtomic pins the endpoint identities on the paper's
// tiers: all-patched reproduces the atomic factored solution
// byte-identically, all-unpatched is deterministically fully up.
func TestRolloutEndpointsAtomic(t *testing.T) {
	nm := paperTiers(t, baseCounts)
	patched := make([]int, len(nm.Tiers))
	for i, tier := range nm.Tiers {
		patched[i] = tier.N
	}
	full, err := oracle.SolveNetworkRollout(nm, patched)
	if err != nil {
		t.Fatal(err)
	}
	atomic, err := solveFactored(nm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, atomic) {
		t.Errorf("all-patched rollout solution differs from the atomic factored solution:\n%+v\n%+v", full, atomic)
	}
	zero, err := oracle.SolveNetworkRollout(nm, make([]int, len(nm.Tiers)))
	if err != nil {
		t.Fatal(err)
	}
	if zero.COA != 1 || zero.ServiceAvailability != 1 {
		t.Errorf("all-unpatched rollout: COA %v, service availability %v, want exactly 1",
			zero.COA, zero.ServiceAvailability)
	}

	// Validation: a wrong patched-count length is rejected.
	if _, err := oracle.SolveNetworkRollout(nm, []int{1}); err == nil {
		t.Error("mismatched patched length should fail")
	}
}
