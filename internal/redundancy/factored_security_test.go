package redundancy

import (
	"context"
	"fmt"
	"testing"

	"redpatch/internal/harm"
	"redpatch/internal/mathx"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
	"redpatch/internal/trace"
)

// assertMetricsEqual compares the factored and expanded security metrics
// to the equivalence tolerance.
func assertMetricsEqual(t *testing.T, label string, fac, exp harm.Metrics) {
	t.Helper()
	const tol = 1e-9
	if fac.NoEV != exp.NoEV || fac.NoAP != exp.NoAP || fac.NoEP != exp.NoEP ||
		fac.ShortestPath != exp.ShortestPath {
		t.Errorf("%s: counts NoEV/NoAP/NoEP/SP %d/%d/%d/%d != %d/%d/%d/%d",
			label, fac.NoEV, fac.NoAP, fac.NoEP, fac.ShortestPath,
			exp.NoEV, exp.NoAP, exp.NoEP, exp.ShortestPath)
	}
	if !mathx.AlmostEqual(fac.AIM, exp.AIM, tol) {
		t.Errorf("%s: AIM %.12f != %.12f", label, fac.AIM, exp.AIM)
	}
	if !mathx.AlmostEqual(fac.ASP, exp.ASP, tol) {
		t.Errorf("%s: ASP %.12f != %.12f", label, fac.ASP, exp.ASP)
	}
}

// equivalenceSpecs enumerates the design space the factored path is
// validated over: every homogeneous four-tier design with 1..4 replicas
// per tier, plus heterogeneous web tiers mixing the webalt variant at
// 1..4 replicas per group.
func equivalenceSpecs() []paperdata.DesignSpec {
	var specs []paperdata.DesignSpec
	for dns := 1; dns <= 4; dns++ {
		for web := 1; web <= 4; web++ {
			for app := 1; app <= 4; app++ {
				for db := 1; db <= 4; db++ {
					spec := paperdata.Design{DNS: dns, Web: web, App: app, DB: db}.Spec()
					spec.Name = spec.CanonicalName()
					specs = append(specs, spec)
				}
			}
		}
	}
	// Heterogeneous web tier: web and webalt groups backing each other up.
	for web := 1; web <= 4; web++ {
		for alt := 1; alt <= 4; alt++ {
			specs = append(specs, paperdata.DesignSpec{
				Name: fmt.Sprintf("het-%dw-%dwa", web, alt),
				Tiers: []paperdata.TierSpec{
					{Role: paperdata.RoleDNS, Replicas: 1},
					{Role: paperdata.RoleWeb, Replicas: web},
					{Role: paperdata.RoleWeb, Replicas: alt, Variant: paperdata.RoleWebAlt},
					{Role: paperdata.RoleApp, Replicas: 2},
					{Role: paperdata.RoleDB, Replicas: 1},
				},
			})
		}
	}
	// A webalt-only web tier and a deeper mixed design exercise the
	// class-merging and naming edges.
	specs = append(specs,
		paperdata.DesignSpec{
			Name: "altonly",
			Tiers: []paperdata.TierSpec{
				{Role: paperdata.RoleDNS, Replicas: 2},
				{Role: paperdata.RoleWeb, Replicas: 3, Variant: paperdata.RoleWebAlt},
				{Role: paperdata.RoleApp, Replicas: 1},
				{Role: paperdata.RoleDB, Replicas: 2},
			},
		},
		paperdata.DesignSpec{
			Name: "mergedweb",
			Tiers: []paperdata.TierSpec{
				{Role: paperdata.RoleDNS, Replicas: 1},
				{Role: paperdata.RoleWeb, Replicas: 2},
				{Role: paperdata.RoleWeb, Replicas: 1}, // same stack twice: classes merge
				{Role: paperdata.RoleApp, Replicas: 2},
				{Role: paperdata.RoleDB, Replicas: 1},
			},
		},
	)
	return specs
}

// TestFactoredSecurityEquivalence is the security counterpart of the
// availability solver's TestFactoredEquivalence: across the paper's
// design space — all four tiers at 1..4 replicas, webalt variant mixes,
// both patch policies — the factored (quotient) security metrics must
// match the expanded-topology oracle on every metric within 1e-9. CI
// runs it under the race detector.
func TestFactoredSecurityEquivalence(t *testing.T) {
	critical := patch.CriticalPolicy()
	all := patch.Policy{PatchAll: true}
	// Both parallel subtests evaluate under one shared tracer, so the
	// race detector also covers concurrent span recording on the solver
	// path — the configuration redpatchd runs in.
	ctx := trace.WithTracer(context.Background(), trace.New(trace.Options{}))
	for _, pc := range []struct {
		name   string
		policy patch.Policy
	}{
		{"critical", critical},
		{"patchAll", all},
	} {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			ev, err := NewEvaluator(Options{Policy: &pc.policy})
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range equivalenceSpecs() {
				fac, _, err := ev.EvaluateSpecContext(ctx, spec)
				facBefore, facAfter := fac.Before, fac.After
				if err != nil {
					t.Fatalf("%s: factored: %v", spec.Name, err)
				}
				expBefore, expAfter, err := ev.securityExpanded(spec)
				if err != nil {
					t.Fatalf("%s: expanded: %v", spec.Name, err)
				}
				assertMetricsEqual(t, spec.Name+"/before", facBefore, expBefore)
				assertMetricsEqual(t, spec.Name+"/after", facAfter, expAfter)
			}
		})
	}
}

// TestSecurityMemoSweepReuse: a sweep over an R^k replica space must
// build exactly one factored security model per variant structure —
// every other spec is a memo hit.
func TestSecurityMemoSweepReuse(t *testing.T) {
	ev, err := NewEvaluator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for dns := 1; dns <= 3; dns++ {
		for web := 1; web <= 3; web++ {
			for app := 1; app <= 3; app++ {
				for db := 1; db <= 3; db++ {
					d := paperdata.Design{Name: "s", DNS: dns, Web: web, App: app, DB: db}
					if _, _, err := ev.EvaluateSpecContext(context.Background(), d.Spec()); err != nil {
						t.Fatal(err)
					}
					n++
				}
			}
		}
	}
	st := ev.SolverStats()
	// One homogeneous structure: its unpatched and fully patched models,
	// each looked up once per design.
	if st.SecuritySolves != 2 {
		t.Errorf("SecuritySolves = %d, want 2 (one homogeneous structure, two endpoints)", st.SecuritySolves)
	}
	if st.SecurityFactorHits != uint64(2*(n-1)) {
		t.Errorf("SecurityFactorHits = %d, want %d", st.SecurityFactorHits, 2*(n-1))
	}
	if st.SecurityFactored != uint64(n) {
		t.Errorf("SecurityFactored = %d, want %d", st.SecurityFactored, n)
	}
}

// TestQuotientPathCounts: n replicas in every tier give n^3(n+1)
// attack paths, which the quotient counts in closed form at any n; the
// expanded oracle, whose exact ASP is feasible only up to n=4, counts
// the same there. A mixed-version rollout point keeps attack paths open.
func TestQuotientPathCounts(t *testing.T) {
	ev, err := NewEvaluator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, n := range []int{4, 8} {
		spec := paperdata.Design{Name: "sec", DNS: n, Web: n, App: n, DB: n}.Spec()
		want := n * n * n * (n + 1)
		r, _, err := ev.EvaluateSpecContext(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if r.Before.NoAP != want {
			t.Errorf("replicas=%d: quotient paths = %d, want %d", n, r.Before.NoAP, want)
		}
		if n > 4 {
			continue
		}
		before, _, err := ev.securityExpanded(spec)
		if err != nil {
			t.Fatal(err)
		}
		if before.NoAP != want {
			t.Errorf("replicas=%d: expanded paths = %d, want %d", n, before.NoAP, want)
		}
	}
	spec := paperdata.Design{Name: "rq", DNS: 2, Web: 4, App: 4, DB: 2}.Spec()
	r, _, err := ev.EvaluatePatched(ctx, spec, []int{1, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Security.NoAP == 0 {
		t.Error("half-patched 2-4-4-2 rollout point has no attack paths")
	}
}

// TestSecurityMemoKeyVariants: two specs with identical replica counts
// but different variant sets must not share a security factor, and their
// metrics must differ (the variant stack has different vulnerabilities).
func TestSecurityMemoKeyVariants(t *testing.T) {
	ev, err := NewEvaluator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain := paperdata.DesignSpec{
		Name: "plain",
		Tiers: []paperdata.TierSpec{
			{Role: paperdata.RoleDNS, Replicas: 1},
			{Role: paperdata.RoleWeb, Replicas: 2},
			{Role: paperdata.RoleApp, Replicas: 2},
			{Role: paperdata.RoleDB, Replicas: 1},
		},
	}
	variant := paperdata.DesignSpec{
		Name: "variant",
		Tiers: []paperdata.TierSpec{
			{Role: paperdata.RoleDNS, Replicas: 1},
			{Role: paperdata.RoleWeb, Replicas: 2, Variant: paperdata.RoleWebAlt},
			{Role: paperdata.RoleApp, Replicas: 2},
			{Role: paperdata.RoleDB, Replicas: 1},
		},
	}
	rp, _, err := ev.EvaluateSpecContext(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	rv, _, err := ev.EvaluateSpecContext(context.Background(), variant)
	if err != nil {
		t.Fatal(err)
	}
	st := ev.SolverStats()
	if st.SecuritySolves != 4 {
		t.Errorf("SecuritySolves = %d, want 4 (two endpoints of two variant structures)", st.SecuritySolves)
	}
	if st.SecurityFactorHits != 0 {
		t.Errorf("SecurityFactorHits = %d, want 0", st.SecurityFactorHits)
	}
	// Same replica counts, different stacks: the webalt web tier has 3
	// exploitable vulnerabilities per replica instead of 5.
	if rp.Before.NoEV == rv.Before.NoEV {
		t.Errorf("plain and variant NoEV both %d; factors must not be shared", rp.Before.NoEV)
	}
	// Re-evaluating either spec is a pure memo hit.
	if _, _, err := ev.EvaluateSpecContext(context.Background(), plain); err != nil {
		t.Fatal(err)
	}
	if got := ev.SolverStats().SecuritySolves; got != 4 {
		t.Errorf("SecuritySolves after repeat = %d, want 4", got)
	}
}

// TestSecurityMemoDistinctPolicies: evaluators under different patch
// policies keep separate memos — the after-patch metrics of the same
// spec differ.
func TestSecurityMemoDistinctPolicies(t *testing.T) {
	critical, err := NewEvaluator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	allPol := patch.Policy{PatchAll: true}
	all, err := NewEvaluator(Options{Policy: &allPol})
	if err != nil {
		t.Fatal(err)
	}
	spec := paperdata.BaseDesign().Spec()
	rc, _, err := critical.EvaluateSpecContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ra, _, err := all.EvaluateSpecContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if ra.After.NoEV != 0 {
		t.Errorf("patch-all after NoEV = %d, want 0", ra.After.NoEV)
	}
	if rc.After.NoEV == ra.After.NoEV {
		t.Error("critical and patch-all after-patch NoEV should differ")
	}
}
