package redundancy

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"redpatch/internal/mathx"
	"redpatch/internal/oracle"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
)

// The evaluator solves four server SRNs; share one across tests.
var (
	sharedEval     *Evaluator
	sharedResults  []Result
	sharedInitOnce sync.Once
	sharedInitErr  error
)

func evaluator(t *testing.T) (*Evaluator, []Result) {
	t.Helper()
	sharedInitOnce.Do(func() {
		sharedEval, sharedInitErr = NewEvaluator(Options{})
		if sharedInitErr != nil {
			return
		}
		for _, d := range paperdata.Designs() {
			r, err := evalDesign(sharedEval, d)
			if err != nil {
				sharedInitErr = err
				return
			}
			sharedResults = append(sharedResults, r)
		}
	})
	if sharedInitErr != nil {
		t.Fatal(sharedInitErr)
	}
	return sharedEval, sharedResults
}

// evalDesign evaluates a classic design through the spec path.
func evalDesign(e *Evaluator, d paperdata.Design) (Result, error) {
	r, _, err := e.EvaluateSpecContext(context.Background(), d.Spec())
	return r, err
}

func byName(t *testing.T, results []Result, name string) Result {
	t.Helper()
	for _, r := range results {
		if r.Spec.Name == name {
			return r
		}
	}
	t.Fatalf("design %s not in results", name)
	return Result{}
}

func TestFiveDesignResults(t *testing.T) {
	_, results := evaluator(t)
	if len(results) != 5 {
		t.Fatalf("results = %d, want 5", len(results))
	}
	for _, r := range results {
		// Before patch every design is maximally attackable (Fig. 6a).
		if !mathx.AlmostEqual(r.Before.ASP, 1.0, 1e-9) {
			t.Errorf("%s before ASP = %v, want 1.0", r.Spec.Name, r.Before.ASP)
		}
		if !mathx.AlmostEqual(r.Before.AIM, 52.2, 1e-9) {
			t.Errorf("%s before AIM = %v, want 52.2 (same longest path in every design)", r.Spec.Name, r.Before.AIM)
		}
		if !mathx.AlmostEqual(r.After.AIM, 42.2, 1e-9) {
			t.Errorf("%s after AIM = %v, want 42.2", r.Spec.Name, r.After.AIM)
		}
		if r.After.ASP >= r.Before.ASP {
			t.Errorf("%s patch must reduce ASP", r.Spec.Name)
		}
	}
}

// TestFigure7MetricCounts pins the before/after NoEV, NoAP and NoEP of
// every design (the radar-chart axes of Fig. 7).
func TestFigure7MetricCounts(t *testing.T) {
	_, results := evaluator(t)
	tests := []struct {
		name                               string
		noEVBefore, noAPBefore, noEPBefore int
		noEVAfter, noAPAfter, noEPAfter    int
	}{
		{name: "D1", noEVBefore: 16, noAPBefore: 2, noEPBefore: 2, noEVAfter: 7, noAPAfter: 1, noEPAfter: 1},
		{name: "D2", noEVBefore: 17, noAPBefore: 3, noEPBefore: 3, noEVAfter: 7, noAPAfter: 1, noEPAfter: 1},
		{name: "D3", noEVBefore: 21, noAPBefore: 4, noEPBefore: 3, noEVAfter: 9, noAPAfter: 2, noEPAfter: 2},
		{name: "D4", noEVBefore: 21, noAPBefore: 4, noEPBefore: 2, noEVAfter: 9, noAPAfter: 2, noEPAfter: 1},
		{name: "D5", noEVBefore: 21, noAPBefore: 4, noEPBefore: 2, noEVAfter: 10, noAPAfter: 2, noEPAfter: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := byName(t, results, tt.name)
			if r.Before.NoEV != tt.noEVBefore || r.Before.NoAP != tt.noAPBefore || r.Before.NoEP != tt.noEPBefore {
				t.Errorf("before = (NoEV %d, NoAP %d, NoEP %d), want (%d, %d, %d)",
					r.Before.NoEV, r.Before.NoAP, r.Before.NoEP, tt.noEVBefore, tt.noAPBefore, tt.noEPBefore)
			}
			if r.After.NoEV != tt.noEVAfter || r.After.NoAP != tt.noAPAfter || r.After.NoEP != tt.noEPAfter {
				t.Errorf("after = (NoEV %d, NoAP %d, NoEP %d), want (%d, %d, %d)",
					r.After.NoEV, r.After.NoAP, r.After.NoEP, tt.noEVAfter, tt.noAPAfter, tt.noEPAfter)
			}
		})
	}
}

// TestPaperObservations verifies the qualitative claims of §IV-A/B: D1
// and D2 share their after-patch ASP (the patched DNS leaves the graph),
// every other design has strictly higher ASP, and only D3 has more entry
// points after patch.
func TestPaperObservations(t *testing.T) {
	_, results := evaluator(t)
	d1 := byName(t, results, "D1")
	d2 := byName(t, results, "D2")
	if !mathx.AlmostEqual(d1.After.ASP, d2.After.ASP, 1e-12) {
		t.Errorf("D1 and D2 after-patch ASP should match: %v vs %v", d1.After.ASP, d2.After.ASP)
	}
	for _, name := range []string{"D3", "D4", "D5"} {
		r := byName(t, results, name)
		if r.After.ASP <= d1.After.ASP {
			t.Errorf("%s after ASP = %v should exceed D1's %v", name, r.After.ASP, d1.After.ASP)
		}
	}
	for _, name := range []string{"D1", "D2", "D4", "D5"} {
		if byName(t, results, name).After.NoEP != 1 {
			t.Errorf("%s after NoEP should be 1", name)
		}
	}
	if byName(t, results, "D3").After.NoEP != 2 {
		t.Error("only D3 keeps two entry points after patch")
	}
}

func designNames(results []Result) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = r.Spec.Name
	}
	return out
}

func TestParetoFront(t *testing.T) {
	_, results := evaluator(t)
	front := Front(results,
		func(r Result) (float64, float64) { return r.After.ASP, r.COA },
		func(a, b Result) int { return strings.Compare(a.Spec.Name, b.Spec.Name) })
	if len(front) == 0 {
		t.Fatal("front must not be empty")
	}
	// D1 is dominated by D2 (same ASP, higher COA) and must be absent.
	for _, r := range front {
		if r.Spec.Name == "D1" {
			t.Error("D1 is dominated by D2 and must not be on the front")
		}
	}
	// D2 (lowest ASP among survivors) and D4 (highest COA) must be on it.
	var sawD2, sawD4 bool
	for _, r := range front {
		switch r.Spec.Name {
		case "D2":
			sawD2 = true
		case "D4":
			sawD4 = true
		}
	}
	if !sawD2 || !sawD4 {
		t.Errorf("front = %v, expected D2 and D4 present", designNames(front))
	}
	// Sorted by ascending ASP.
	for i := 1; i < len(front); i++ {
		if front[i-1].After.ASP > front[i].After.ASP {
			t.Error("front must be sorted by ascending ASP")
		}
	}
}

func TestEvaluateRejectsBadDesign(t *testing.T) {
	e, _ := evaluator(t)
	if _, err := evalDesign(e, paperdata.Design{Name: "bad"}); err == nil {
		t.Error("invalid design should fail")
	}
}

func TestAccessors(t *testing.T) {
	e, _ := evaluator(t)
	agg := e.AggregatedRates()
	if len(agg) != 4 {
		t.Fatalf("AggregatedRates = %d entries, want 4", len(agg))
	}
	if !mathx.AlmostEqual(agg[paperdata.RoleDNS].MuEq, 1.49992, 1e-4) {
		t.Errorf("dns mu_eq = %v, want ≈ 1.49992", agg[paperdata.RoleDNS].MuEq)
	}
	plans := e.Plans()
	if plans[paperdata.RoleApp].TotalDowntime().Minutes() != 60 {
		t.Errorf("app plan downtime = %v, want 60m", plans[paperdata.RoleApp].TotalDowntime())
	}
}

// TestPatchAllPolicyZeroesSecurityMetrics: under a patch-everything
// policy the after-patch network has no attack surface at all, and the
// availability cost of patching grows (longer windows).
func TestPatchAllPolicyZeroesSecurityMetrics(t *testing.T) {
	pol := patch.Policy{PatchAll: true}
	e, err := NewEvaluator(Options{Policy: &pol})
	if err != nil {
		t.Fatal(err)
	}
	r, err := evalDesign(e, paperdata.Designs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.After.NoEV != 0 || r.After.NoAP != 0 || r.After.ASP != 0 {
		t.Errorf("patch-all should zero the attack surface, got %+v", r.After)
	}
	_, critResults := evaluator(t)
	critD1 := byName(t, critResults, "D1")
	if r.COA >= critD1.COA {
		t.Errorf("patching more vulnerabilities must cost more availability: %v vs %v", r.COA, critD1.COA)
	}
}

// TestEvaluatorSafeForConcurrentUse exercises the documented guarantee the
// engine relies on: one Evaluator shared by many goroutines, each
// evaluating designs, must produce exactly the serial results (run under
// -race to verify the absence of data races, not just agreement).
func TestEvaluatorSafeForConcurrentUse(t *testing.T) {
	e, _ := evaluator(t)
	specs := equivalenceSpecs()
	serial := make([]Result, len(specs))
	for i, sp := range specs {
		r, _, err := e.EvaluateSpecContext(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = r
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, sp := range specs {
				r, _, err := e.EvaluateSpecContext(context.Background(), sp)
				if err != nil {
					errs[g] = err
					return
				}
				if !reflect.DeepEqual(r, serial[i]) {
					errs[g] = fmt.Errorf("design %s: concurrent result differs", sp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// specTiers builds a classic chain with the given web-tier groups.
func specTiers(web ...paperdata.TierSpec) []paperdata.TierSpec {
	tiers := []paperdata.TierSpec{{Role: paperdata.RoleDNS, Replicas: 1}}
	tiers = append(tiers, web...)
	return append(tiers,
		paperdata.TierSpec{Role: paperdata.RoleApp, Replicas: 1},
		paperdata.TierSpec{Role: paperdata.RoleDB, Replicas: 1})
}

// TestEvaluateSpecHeterogeneousWebTier evaluates the paper's §V variant
// deployment through the spec path: a web tier mixing Apache and Nginx
// shares no vulnerability between its replicas, so the after-patch attack
// success probability drops below the homogeneous twin's while the tier
// still backs itself up for availability.
func TestEvaluateSpecHeterogeneousWebTier(t *testing.T) {
	e, _ := evaluator(t)
	homog, _, err := e.EvaluateSpecContext(context.Background(), paperdata.DesignSpec{
		Name:  "homog",
		Tiers: specTiers(paperdata.TierSpec{Role: paperdata.RoleWeb, Replicas: 2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	hetero, _, err := e.EvaluateSpecContext(context.Background(), paperdata.DesignSpec{
		Name: "hetero",
		Tiers: specTiers(
			paperdata.TierSpec{Role: paperdata.RoleWeb, Replicas: 1},
			paperdata.TierSpec{Role: paperdata.RoleWeb, Replicas: 1, Variant: paperdata.RoleWebAlt}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 DNS leaf + 5 Apache leaves + 3 Nginx leaves + 5 app + 5 db.
	if hetero.Before.NoEV != 19 {
		t.Errorf("heterogeneous NoEV before = %d, want 19", hetero.Before.NoEV)
	}
	if hetero.After.ASP >= homog.After.ASP {
		t.Errorf("heterogeneous after-patch ASP = %v, want below homogeneous %v",
			hetero.After.ASP, homog.After.ASP)
	}
	if hetero.COA <= 0 || hetero.COA > 1 || hetero.ServiceAvailability < homog.ServiceAvailability-1e-3 {
		t.Errorf("implausible heterogeneous availability: COA %v, service %v (homogeneous %v)",
			hetero.COA, hetero.ServiceAvailability, homog.ServiceAvailability)
	}
}

// TestRankPatchesHonoursPolicy pins the satellite fix: the ranking must
// come from the evaluator's own policy, not the paper defaults — a
// critical-threshold study ranks only its critical set, a PatchAll study
// ranks every distinct vulnerability.
func TestRankPatchesHonoursPolicy(t *testing.T) {
	e, _ := evaluator(t)
	spec := paperdata.BaseDesign().Spec()
	critical, err := e.RankPatches(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(critical) != 9 {
		t.Fatalf("critical policy ranked %d CVEs, want the 9 with base score > 8.0", len(critical))
	}
	for _, c := range critical {
		if c.Ref == "CVE-2016-4997" {
			t.Error("CVE-2016-4997 (base 7.2) ranked under the critical policy")
		}
	}

	all := patch.Policy{PatchAll: true}
	ePA, err := NewEvaluator(Options{Policy: &all})
	if err != nil {
		t.Fatal(err)
	}
	everything, err := ePA.RankPatches(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(everything) != 15 {
		t.Fatalf("patch-all policy ranked %d CVEs, want all 15 distinct", len(everything))
	}
}

// TestPlanCampaignUsesEvaluatorPolicy checks the campaign surface: a
// PatchAll evaluator plans more work than the critical-policy default.
func TestPlanCampaignUsesEvaluatorPolicy(t *testing.T) {
	e, _ := evaluator(t)
	crit, err := e.PlanCampaign(paperdata.RoleWeb, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	all := patch.Policy{PatchAll: true}
	ePA, err := NewEvaluator(Options{Policy: &all})
	if err != nil {
		t.Fatal(err)
	}
	full, err := ePA.PlanCampaign(paperdata.RoleWeb, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	nvulns := func(c patch.Campaign) int {
		n := len(c.Deferred)
		for _, r := range c.Rounds {
			n += len(r.Selected)
		}
		return n
	}
	if nvulns(full) <= nvulns(crit) {
		t.Errorf("patch-all campaign covers %d vulns, critical %d; want strictly more",
			nvulns(full), nvulns(crit))
	}
	if _, err := e.PlanCampaign("nosuchrole", 30*time.Minute); err == nil {
		t.Error("unknown role accepted")
	}
}

// TestTierFactorMemo pins the factored-availability bookkeeping: a fresh
// evaluator solves one tier factor per distinct (stack, replicas) pair,
// and serves repeats from the memo.
func TestTierFactorMemo(t *testing.T) {
	e, err := NewEvaluator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.SolverStats(); st != (SolverStats{}) {
		t.Fatalf("fresh evaluator stats = %+v, want zeros", st)
	}
	// Base design 1d2w2a1b: four distinct (stack, n) pairs.
	if _, err := evalDesign(e, paperdata.BaseDesign()); err != nil {
		t.Fatal(err)
	}
	st := e.SolverStats()
	if st.FactoredSolves != 1 || st.TierSolves != 4 || st.TierFactorHits != 0 {
		t.Fatalf("after base design: stats = %+v, want 1 factored / 4 tier solves", st)
	}
	// Same replica multiset again (different name): all four factors hit.
	if _, err := evalDesign(e, paperdata.Design{Name: "again", DNS: 1, Web: 2, App: 2, DB: 1}); err != nil {
		t.Fatal(err)
	}
	st = e.SolverStats()
	if st.FactoredSolves != 2 || st.TierSolves != 4 || st.TierFactorHits != 4 {
		t.Fatalf("after repeat: stats = %+v, want 2 factored / 4 tier solves / 4 hits", st)
	}
	// A new replica count adds exactly the new pairs.
	if _, err := evalDesign(e, paperdata.Design{Name: "d1", DNS: 1, Web: 1, App: 1, DB: 1}); err != nil {
		t.Fatal(err)
	}
	st = e.SolverStats()
	if st.TierSolves != 6 || st.TierFactorHits != 6 {
		t.Fatalf("after 1d1w1a1b: stats = %+v, want 6 tier solves / 6 hits", st)
	}
}

// TestFactoredAvailabilityMatchesSRNOracle cross-validates the
// evaluator's memoized factored solve against the generated-SRN oracle
// on the upper-layer model of a heterogeneous spec.
func TestFactoredAvailabilityMatchesSRNOracle(t *testing.T) {
	e, _ := evaluator(t)
	spec := paperdata.DesignSpec{Name: "hetero", Tiers: []paperdata.TierSpec{
		{Role: paperdata.RoleDNS, Replicas: 1},
		{Role: paperdata.RoleWeb, Replicas: 2},
		{Role: paperdata.RoleWeb, Replicas: 1, Variant: paperdata.RoleWebAlt},
		{Role: paperdata.RoleApp, Replicas: 2},
		{Role: paperdata.RoleDB, Replicas: 1},
	}}
	r, _, err := e.EvaluateSpecContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	nm, err := e.networkModelFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.SolveNetworkSRN(nm)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(r.COA, want.COA, 1e-9) {
		t.Errorf("factored COA %.12f != SRN oracle %.12f", r.COA, want.COA)
	}
	if !mathx.AlmostEqual(r.ServiceAvailability, want.ServiceAvailability, 1e-9) {
		t.Errorf("factored service availability %.12f != SRN oracle %.12f",
			r.ServiceAvailability, want.ServiceAvailability)
	}
}
