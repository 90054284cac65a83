package harm

import (
	"testing"

	"redpatch/internal/attacktree"
	"redpatch/internal/mathx"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
)

// paperDesignHARM builds the HARM of one of the paper's designs from the
// paper dataset, before and after the critical-policy patch round.
func paperDesignHARM(t *testing.T, d paperdata.Design) (before, after *HARM) {
	t.Helper()
	db := paperdata.VulnDB()
	top := paperdata.SpecTopology(d.Spec())
	before, err := Build(BuildInput{Topology: top, Trees: paperdata.Trees(db), TargetRoles: []string{paperdata.RoleDB}})
	if err != nil {
		t.Fatal(err)
	}
	pol := patch.CriticalPolicy()
	after, err = before.Patched(func(role string, l *attacktree.Leaf) bool {
		v, ok := db.ByID(l.Ref)
		return !ok || !pol.Selects(v)
	})
	if err != nil {
		t.Fatal(err)
	}
	return before, after
}

// TestExperimentE2_Figure3 reproduces the HARM structure of Fig. 3: the
// upper-layer node sets before and after patch and the lower-layer tree
// shapes.
func TestExperimentE2_Figure3(t *testing.T) {
	h, patched := paperDesignHARM(t, paperdata.BaseDesign())
	before := h.upper.sortedNodes()
	after := patched.upper.sortedNodes()
	if len(before) != 7 { // attacker + 6 servers (Fig. 3a)
		t.Errorf("before-patch upper layer = %v, want 7 nodes", before)
	}
	if len(after) != 6 { // dns1 drops out (Fig. 3b)
		t.Errorf("after-patch upper layer = %v, want 6 nodes", after)
	}
	if patched.upper.hasNode("dns1") {
		t.Error("dns1 must leave the attack graph after patch")
	}
	if got := patched.lower["web1"].String(); got != "OR(AND(CVE-2016-4979, CVE-2016-4805))" {
		t.Errorf("after-patch web tree = %s", got)
	}
	t.Logf("before: %v", before)
	t.Logf("after:  %v", after)
}

// TestMaxPathStrategyInsensitiveToRedundancy documents why ASPMaxPath is
// not the default: it cannot see redundancy at all. D1 and D3 differ
// only in a second web server.
func TestMaxPathStrategyInsensitiveToRedundancy(t *testing.T) {
	var asp [2]float64
	for i, d := range []paperdata.Design{paperdata.Designs()[0], paperdata.Designs()[2]} {
		_, after := paperDesignHARM(t, d)
		m, err := after.Evaluate(EvalOptions{Strategy: ASPMaxPath})
		if err != nil {
			t.Fatal(err)
		}
		asp[i] = m.ASP
	}
	if !mathx.AlmostEqual(asp[0], asp[1], 1e-12) {
		t.Errorf("max-path ASP should not change with redundancy: %v vs %v", asp[0], asp[1])
	}
}
