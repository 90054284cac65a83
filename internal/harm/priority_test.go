package harm

import (
	"testing"

	"redpatch/internal/attacktree"
	"redpatch/internal/mathx"
)

func TestRisk(t *testing.T) {
	m := Metrics{ASP: 0.5, AIM: 40}
	if got := m.Risk(); got != 20 {
		t.Errorf("Risk = %v, want 20", got)
	}
}

func TestRankPatchCandidates(t *testing.T) {
	h := buildPaperHARM(t)
	candidates, err := h.RankPatchCandidatesWhere(EvalOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 16 distinct references (CVE-2016-4997 shared between app and db).
	if len(candidates) != 16 {
		t.Fatalf("candidates = %d, want 16", len(candidates))
	}
	// v1dns is the only DNS vulnerability: patching it removes dns1 from
	// the graph, cutting AIM from 52.2 to 42.2 at unchanged ASP 1.0 —
	// the largest single-patch risk reduction.
	if candidates[0].Ref != "v1dns" {
		t.Errorf("top candidate = %s, want v1dns", candidates[0].Ref)
	}
	if !mathx.AlmostEqual(candidates[0].RiskReduction, 10.0, 1e-9) {
		t.Errorf("top risk reduction = %v, want 10.0", candidates[0].RiskReduction)
	}
	if len(candidates[0].Hosts) != 1 || candidates[0].Hosts[0] != "dns1" {
		t.Errorf("top candidate hosts = %v, want [dns1]", candidates[0].Hosts)
	}
	// Patching any one of the three interchangeable critical web flaws
	// changes nothing (the others still give probability 1, impact 12.9).
	var v1web PatchCandidate
	for _, c := range candidates {
		if c.Ref == "v1web" {
			v1web = c
		}
	}
	if v1web.Ref == "" {
		t.Fatal("v1web not ranked")
	}
	if !mathx.AlmostEqual(v1web.RiskReduction, 0, 1e-9) {
		t.Errorf("v1web risk reduction = %v, want 0 (redundant exploit)", v1web.RiskReduction)
	}
	// Replicated vulnerabilities are attributed to every instance.
	for _, c := range candidates {
		if c.Ref == "v5app" {
			if len(c.Hosts) != 2 || c.Hosts[0] != "app1" || c.Hosts[1] != "app2" {
				t.Errorf("v5app hosts = %v, want [app1 app2]", c.Hosts)
			}
		}
	}
	// Ordering invariant.
	for i := 1; i < len(candidates); i++ {
		if candidates[i-1].RiskReduction < candidates[i].RiskReduction-1e-12 {
			t.Error("candidates must be sorted by descending risk reduction")
		}
	}
}

// TestInstanceTreeOverrides exercises heterogeneous redundancy: two web
// replicas with different stacks.
func TestInstanceTreeOverrides(t *testing.T) {
	top := paperTopology(t)
	trees := paperTrees()
	altWeb := attacktree.New(attacktree.NewOR(
		attacktree.NewLeaf("alt1", 10.0, 1.0),
		attacktree.NewAND(
			attacktree.NewLeaf("alt2", 6.4, 0.86),
			attacktree.NewLeaf("alt3", 10.0, 0.39),
		),
	))
	h, err := Build(BuildInput{
		Topology:      top,
		Trees:         trees,
		InstanceTrees: map[string]*attacktree.Tree{"web2": altWeb},
		TargetRoles:   []string{"db"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// web2 now carries 3 vulnerabilities instead of 5: NoEV drops by 2.
	m, err := h.Evaluate(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NoEV != 24 {
		t.Errorf("NoEV = %d, want 24 (26 - 2)", m.NoEV)
	}
	if got := h.lower["web2"].String(); got != "OR(alt1, AND(alt2, alt3))" {
		t.Errorf("web2 tree = %s", got)
	}
	if got := h.lower["web1"].String(); got == h.lower["web2"].String() {
		t.Error("web1 must keep the role template")
	}

	// Patch the critical paper vulns plus alt1: web2's remaining chain
	// differs from web1's, and both instances prune independently.
	patched, err := h.Patched(func(role string, l *attacktree.Leaf) bool {
		return !criticalRefs[l.Ref] && l.Ref != "alt1"
	})
	if err != nil {
		t.Fatal(err)
	}
	after, err := patched.Evaluate(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := patched.lower["web2"].String(); got != "OR(AND(alt2, alt3))" {
		t.Errorf("patched web2 tree = %s", got)
	}
	// web2's success probability (0.86*0.39) differs from web1's 0.39, so
	// the compromise ASP must differ from the homogeneous case.
	homoPatched := patchCriticals(t, buildPaperHARM(t))
	homo, err := homoPatched.Evaluate(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mathx.AlmostEqual(after.ASP, homo.ASP, 1e-9) {
		t.Errorf("heterogeneous ASP %v should differ from homogeneous %v", after.ASP, homo.ASP)
	}
	if after.ASP >= homo.ASP {
		t.Errorf("the harder alt chain should lower ASP: %v vs %v", after.ASP, homo.ASP)
	}
}

func TestInstanceTreeValidation(t *testing.T) {
	top := paperTopology(t)
	if _, err := Build(BuildInput{
		Topology:      top,
		Trees:         paperTrees(),
		InstanceTrees: map[string]*attacktree.Tree{"ghost": attacktree.New(attacktree.NewLeaf("x", 1, 1))},
		TargetRoles:   []string{"db"},
	}); err == nil {
		t.Error("instance tree for unknown host should fail")
	}
	if _, err := Build(BuildInput{
		Topology:      top,
		Trees:         paperTrees(),
		InstanceTrees: map[string]*attacktree.Tree{"web2": attacktree.New(attacktree.NewLeaf("x", -1, 1))},
		TargetRoles:   []string{"db"},
	}); err == nil {
		t.Error("invalid instance tree should fail")
	}
}
