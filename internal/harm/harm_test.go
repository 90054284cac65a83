package harm

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"redpatch/internal/attacktree"
	"redpatch/internal/mathx"
	"redpatch/internal/topology"
)

// paperTrees builds the Table I attack trees of the four server roles.
func paperTrees() map[string]*attacktree.Tree {
	return map[string]*attacktree.Tree{
		"dns": attacktree.New(attacktree.NewOR(
			attacktree.NewLeaf("v1dns", 10.0, 1.0),
		)),
		"web": attacktree.New(attacktree.NewOR(
			attacktree.NewLeaf("v1web", 10.0, 1.0),
			attacktree.NewLeaf("v2web", 10.0, 1.0),
			attacktree.NewLeaf("v3web", 10.0, 1.0),
			attacktree.NewAND(
				attacktree.NewLeaf("v4web", 2.9, 1.0),
				attacktree.NewLeaf("v5web", 10.0, 0.39),
			),
		)),
		"app": attacktree.New(attacktree.NewOR(
			attacktree.NewLeaf("v1app", 10.0, 1.0),
			attacktree.NewLeaf("v2app", 10.0, 1.0),
			attacktree.NewLeaf("v3app", 10.0, 1.0),
			attacktree.NewAND(
				attacktree.NewLeaf("v4app", 6.4, 1.0),
				attacktree.NewLeaf("v5app", 10.0, 0.39),
			),
		)),
		"db": attacktree.New(attacktree.NewOR(
			attacktree.NewLeaf("v1db", 10.0, 1.0),
			attacktree.NewLeaf("v2db", 10.0, 1.0),
			attacktree.NewAND(
				attacktree.NewLeaf("v3db", 2.9, 0.86),
				attacktree.NewLeaf("v4db", 10.0, 0.39),
			),
			attacktree.NewLeaf("v5db", 10.0, 0.39),
		)),
	}
}

// criticalRefs is the set of Table I vulnerabilities with CVSS base score
// above 8.0 — the ones the paper's monthly patch removes.
var criticalRefs = map[string]bool{
	"v1dns": true,
	"v1web": true, "v2web": true, "v3web": true,
	"v1app": true, "v2app": true, "v3app": true,
	"v1db": true, "v2db": true,
}

// paperTopology builds the example network (Fig. 2) with the base
// redundancy 1 DNS + 2 WEB + 2 APP + 1 DB.
func paperTopology(t *testing.T) *topology.Topology {
	t.Helper()
	top := topology.New()
	top.MustAddNode(topology.Node{Name: "attacker", Kind: topology.KindAttacker, Subnet: "internet"})
	top.MustAddNode(topology.Node{Name: "dns1", Kind: topology.KindHost, Subnet: "dmz2", Role: "dns"})
	top.MustAddNode(topology.Node{Name: "web1", Kind: topology.KindHost, Subnet: "dmz1", Role: "web"})
	top.MustAddNode(topology.Node{Name: "web2", Kind: topology.KindHost, Subnet: "dmz1", Role: "web"})
	top.MustAddNode(topology.Node{Name: "app1", Kind: topology.KindHost, Subnet: "intranet", Role: "app"})
	top.MustAddNode(topology.Node{Name: "app2", Kind: topology.KindHost, Subnet: "intranet", Role: "app"})
	top.MustAddNode(topology.Node{Name: "db1", Kind: topology.KindHost, Subnet: "intranet", Role: "db"})
	for _, e := range [][2]string{
		{"attacker", "dns1"}, {"attacker", "web1"}, {"attacker", "web2"},
		{"dns1", "web1"}, {"dns1", "web2"},
		{"web1", "app1"}, {"web1", "app2"}, {"web2", "app1"}, {"web2", "app2"},
		{"app1", "db1"}, {"app2", "db1"},
	} {
		top.MustConnect(e[0], e[1])
	}
	return top
}

func buildPaperHARM(t *testing.T) *HARM {
	t.Helper()
	h, err := Build(BuildInput{
		Topology:    paperTopology(t),
		Trees:       paperTrees(),
		TargetRoles: []string{"db"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func patchCriticals(t *testing.T, h *HARM) *HARM {
	t.Helper()
	patched, err := h.Patched(func(role string, l *attacktree.Leaf) bool {
		return !criticalRefs[l.Ref]
	})
	if err != nil {
		t.Fatal(err)
	}
	return patched
}

func TestBeforePatchMetrics(t *testing.T) {
	// Paper Table II, before patch: AIM 52.2, ASP 1.0, NoAP 8, NoEP 3.
	// NoEV: the paper prints 25; summing Table I exploitable
	// vulnerabilities over instances gives 1 + 2*5 + 2*5 + 5 = 26.
	h := buildPaperHARM(t)
	m, err := h.Evaluate(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(m.AIM, 52.2, 1e-9) {
		t.Errorf("AIM = %v, want 52.2", m.AIM)
	}
	if !mathx.AlmostEqual(m.ASP, 1.0, 1e-9) {
		t.Errorf("ASP = %v, want 1.0", m.ASP)
	}
	if m.NoEV != 26 {
		t.Errorf("NoEV = %d, want 26", m.NoEV)
	}
	if m.NoAP != 8 {
		t.Errorf("NoAP = %d, want 8", m.NoAP)
	}
	if m.NoEP != 3 {
		t.Errorf("NoEP = %d, want 3", m.NoEP)
	}
}

func TestShortestPath(t *testing.T) {
	h := buildPaperHARM(t)
	m, err := h.Evaluate(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Direct entry via a web server: 3 hosts (web, app, db).
	if m.ShortestPath != 3 {
		t.Errorf("ShortestPath = %d, want 3", m.ShortestPath)
	}
	after, err := patchCriticals(t, h).Evaluate(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if after.ShortestPath != 3 {
		t.Errorf("ShortestPath after patch = %d, want 3", after.ShortestPath)
	}
	// No paths: zero.
	clean, err := h.Patched(func(string, *attacktree.Leaf) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	none, err := clean.Evaluate(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if none.ShortestPath != 0 {
		t.Errorf("ShortestPath with no paths = %d, want 0", none.ShortestPath)
	}
}

func TestPaperPathImpactExample(t *testing.T) {
	// Paper §III-C: aim(ap1 = dns1,web1,app1,db1) = 52.2.
	h := buildPaperHARM(t)
	m, err := h.Evaluate(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, pm := range m.Paths {
		if strings.Join(pm.Path, " -> ") == "attacker -> dns1 -> web1 -> app1 -> db1" {
			found = true
			if !mathx.AlmostEqual(pm.Impact, 52.2, 1e-9) {
				t.Errorf("path impact = %v, want 52.2", pm.Impact)
			}
		}
	}
	if !found {
		t.Error("expected path attacker->dns1->web1->app1->db1 not enumerated")
	}
}

func TestAfterPatchMetrics(t *testing.T) {
	// Paper Table II, after patch: AIM 42.2, NoEV 11, NoAP 4, NoEP 2.
	h := patchCriticals(t, buildPaperHARM(t))
	m, err := h.Evaluate(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(m.AIM, 42.2, 1e-9) {
		t.Errorf("AIM = %v, want 42.2", m.AIM)
	}
	if m.NoEV != 11 {
		t.Errorf("NoEV = %d, want 11", m.NoEV)
	}
	if m.NoAP != 4 {
		t.Errorf("NoAP = %d, want 4", m.NoAP)
	}
	if m.NoEP != 2 {
		t.Errorf("NoEP = %d, want 2", m.NoEP)
	}
	// The patched DNS server must have dropped out of the upper layer but
	// still be known to the lower layer with an empty tree.
	if h.upper.hasNode("dns1") {
		t.Error("dns1 should leave the attack graph after patch")
	}
	if h.lower["dns1"] == nil || !h.lower["dns1"].Empty() {
		t.Error("dns1 should keep an empty tree in the lower layer")
	}
}

func TestASPStrategiesAfterPatch(t *testing.T) {
	h := patchCriticals(t, buildPaperHARM(t))

	// Host probabilities after patch with ORMax: web 0.39, app 0.39,
	// db max(0.86*0.39, 0.39) = 0.39.
	pathProb := 0.39 * 0.39 * 0.39

	t.Run("maxPath", func(t *testing.T) {
		m, err := h.Evaluate(EvalOptions{Strategy: ASPMaxPath})
		if err != nil {
			t.Fatal(err)
		}
		if !mathx.AlmostEqual(m.ASP, pathProb, 1e-12) {
			t.Errorf("ASP = %v, want %v", m.ASP, pathProb)
		}
	})
	t.Run("independentPaths", func(t *testing.T) {
		m, err := h.Evaluate(EvalOptions{Strategy: ASPIndependentPaths})
		if err != nil {
			t.Fatal(err)
		}
		want := 1 - (1-pathProb)*(1-pathProb)*(1-pathProb)*(1-pathProb)
		if !mathx.AlmostEqual(m.ASP, want, 1e-12) {
			t.Errorf("ASP = %v, want %v", m.ASP, want)
		}
	})
	t.Run("compromiseMaxOR", func(t *testing.T) {
		m, err := h.Evaluate(EvalOptions{Strategy: ASPCompromise})
		if err != nil {
			t.Fatal(err)
		}
		// P((w1 or w2) and (a1 or a2) and db) with all hosts at 0.39.
		tier := 1 - 0.61*0.61
		want := tier * tier * 0.39
		if !mathx.AlmostEqual(m.ASP, want, 1e-12) {
			t.Errorf("ASP = %v, want %v", m.ASP, want)
		}
	})
	t.Run("compromiseNoisyOR", func(t *testing.T) {
		// The configuration closest to the paper's Table II value 0.265
		// (the other rules above give 0.059, 0.217 and 0.154): db tree
		// combines noisy-OR to 0.594594.
		m, err := h.Evaluate(EvalOptions{Strategy: ASPCompromise, ORRule: attacktree.ORNoisy})
		if err != nil {
			t.Fatal(err)
		}
		tier := 1 - 0.61*0.61
		db := 1 - (1-0.86*0.39)*(1-0.39)
		want := tier * tier * db
		if !mathx.AlmostEqual(m.ASP, want, 1e-12) {
			t.Errorf("ASP = %v, want %v", m.ASP, want)
		}
		if m.ASP < 0.23 || m.ASP > 0.27 {
			t.Errorf("ASP = %v, expected in the neighbourhood of the paper's 0.265", m.ASP)
		}
	})
}

func TestASPGrowsWithRedundancy(t *testing.T) {
	// Paper Fig. 6(b): designs with more redundancy have higher ASP after
	// patch; designs 1 and 2 are equal because patched DNS leaves the
	// graph.
	build := func(nweb int) *HARM {
		top := topology.New()
		top.MustAddNode(topology.Node{Name: "attacker", Kind: topology.KindAttacker})
		top.MustAddNode(topology.Node{Name: "db1", Kind: topology.KindHost, Role: "db"})
		for i := 1; i <= nweb; i++ {
			name := "web" + string(rune('0'+i))
			top.MustAddNode(topology.Node{Name: name, Kind: topology.KindHost, Role: "web"})
			top.MustConnect("attacker", name)
			top.MustConnect(name, "db1")
		}
		h, err := Build(BuildInput{Topology: top, Trees: paperTrees(), TargetRoles: []string{"db"}})
		if err != nil {
			t.Fatal(err)
		}
		return patchCriticals(t, h)
	}
	m1, err := build(1).Evaluate(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := build(2).Evaluate(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m2.ASP <= m1.ASP {
		t.Errorf("ASP with 2 web (%v) should exceed ASP with 1 web (%v)", m2.ASP, m1.ASP)
	}
}

func TestCompromiseMatchesBruteForce(t *testing.T) {
	// Exhaustively verify inclusion–exclusion against enumeration of all
	// host compromise combinations on random layered graphs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		top := topology.New()
		top.MustAddNode(topology.Node{Name: "A", Kind: topology.KindAttacker})
		n1 := 1 + rng.Intn(2)
		n2 := 1 + rng.Intn(2)
		probs := make(map[string]float64)
		var layer1, layer2 []string
		for i := 0; i < n1; i++ {
			name := "f" + string(rune('0'+i))
			layer1 = append(layer1, name)
			top.MustAddNode(topology.Node{Name: name, Kind: topology.KindHost, Role: name})
			top.MustConnect("A", name)
			probs[name] = rng.Float64()
		}
		for i := 0; i < n2; i++ {
			name := "g" + string(rune('0'+i))
			layer2 = append(layer2, name)
			top.MustAddNode(topology.Node{Name: name, Kind: topology.KindHost, Role: name})
			probs[name] = rng.Float64()
		}
		top.MustAddNode(topology.Node{Name: "T", Kind: topology.KindHost, Role: "target"})
		probs["T"] = rng.Float64()
		for _, a := range layer1 {
			for _, b := range layer2 {
				if rng.Intn(3) > 0 {
					top.MustConnect(a, b)
				}
			}
		}
		for _, b := range layer2 {
			top.MustConnect(b, "T")
		}
		trees := make(map[string]*attacktree.Tree)
		for name, p := range probs {
			role := name
			if name == "T" {
				role = "target"
			}
			trees[role] = attacktree.New(attacktree.NewLeaf("v"+name, 1, p))
		}
		h, err := Build(BuildInput{Topology: top, Trees: trees, TargetRoles: []string{"target"}})
		if err != nil {
			return false
		}
		m, err := h.Evaluate(EvalOptions{Strategy: ASPCompromise})
		if err != nil {
			return false
		}
		// Brute force over all compromise subsets of hosts on paths.
		paths, err := h.upper.allPaths("A", []string{"T"}, allPathsOptions{})
		if err != nil {
			return false
		}
		hosts := nodesOnPaths(paths)
		want := 0.0
		for mask := 0; mask < 1<<uint(len(hosts)); mask++ {
			comp := make(map[string]bool)
			p := 1.0
			for i, hname := range hosts {
				if mask&(1<<uint(i)) != 0 {
					comp[hname] = true
					p *= probs[hname]
				} else {
					p *= 1 - probs[hname]
				}
			}
			ok := false
			for _, path := range paths {
				all := true
				for _, hname := range path[1:] {
					if !comp[hname] {
						all = false
						break
					}
				}
				if all {
					ok = true
					break
				}
			}
			if ok {
				want += p
			}
		}
		return mathx.AlmostEqual(m.ASP, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestExactAlgorithmsAgree: the two exact compromise-probability
// algorithms must produce identical results on random instances.
func TestExactAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 1 + rng.Intn(10)
		k := 1 + rng.Intn(8)
		hostProb := make([]float64, h)
		for i := range hostProb {
			hostProb[i] = rng.Float64()
		}
		pathMask := make([]uint64, k)
		for i := range pathMask {
			pathMask[i] = uint64(rng.Intn(1<<uint(h)-1) + 1)
		}
		a := exactASP{pathMask: pathMask}.probability(hostProb)
		b := exactASP{pathMask: pathMask, enumerate: true}.probability(hostProb)
		return mathx.AlmostEqual(a, b, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExactASPCap(t *testing.T) {
	h := buildPaperHARM(t)
	_, err := h.Evaluate(EvalOptions{Strategy: ASPCompromise, MaxPathsExact: 1})
	if !errors.Is(err, ErrExactASPInfeasible) {
		t.Errorf("expected ErrExactASPInfeasible, got %v", err)
	}
}

func TestAllTargetsPatchedClean(t *testing.T) {
	h := buildPaperHARM(t)
	patched, err := h.Patched(func(role string, l *attacktree.Leaf) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	m, err := patched.Evaluate(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NoEV != 0 || m.NoAP != 0 || m.NoEP != 0 || m.AIM != 0 || m.ASP != 0 {
		t.Errorf("fully patched network should zero every metric, got %+v", m)
	}
}

func TestUnreachableHostStillCountsNoEV(t *testing.T) {
	top := paperTopology(t)
	// An isolated host with vulnerabilities: counts toward NoEV, not paths.
	top.MustAddNode(topology.Node{Name: "island", Kind: topology.KindHost, Role: "web"})
	h, err := Build(BuildInput{Topology: top, Trees: paperTrees(), TargetRoles: []string{"db"}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := h.Evaluate(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NoEV != 31 { // 26 + 5 for the island web server
		t.Errorf("NoEV = %d, want 31", m.NoEV)
	}
	if m.NoAP != 8 {
		t.Errorf("NoAP = %d, want 8 (island adds no paths)", m.NoAP)
	}
}

func TestBuildValidation(t *testing.T) {
	top := paperTopology(t)
	t.Run("nilTopology", func(t *testing.T) {
		if _, err := Build(BuildInput{Trees: paperTrees(), TargetRoles: []string{"db"}}); err == nil {
			t.Error("nil topology should fail")
		}
	})
	t.Run("noTargets", func(t *testing.T) {
		if _, err := Build(BuildInput{Topology: top, Trees: paperTrees()}); err == nil {
			t.Error("no target roles should fail")
		}
	})
	t.Run("badTree", func(t *testing.T) {
		trees := paperTrees()
		trees["web"] = attacktree.New(attacktree.NewLeaf("x", -1, 0.5))
		if _, err := Build(BuildInput{Topology: top, Trees: trees, TargetRoles: []string{"db"}}); err == nil {
			t.Error("invalid tree should fail")
		}
	})
	t.Run("twoAttackers", func(t *testing.T) {
		bad := paperTopology(t)
		bad.MustAddNode(topology.Node{Name: "attacker2", Kind: topology.KindAttacker})
		if _, err := Build(BuildInput{Topology: bad, Trees: paperTrees(), TargetRoles: []string{"db"}}); err == nil {
			t.Error("two attackers should fail")
		}
	})
}

func TestAccessors(t *testing.T) {
	h := buildPaperHARM(t)
	if h.attacker != "attacker" {
		t.Errorf("attacker = %q", h.attacker)
	}
	if got := h.targets; len(got) != 1 || got[0] != "db1" {
		t.Errorf("targets = %v", got)
	}
	if got := h.Hosts(); len(got) != 6 {
		t.Errorf("Hosts = %v, want 6 entries", got)
	}
	if h.lower["web1"] == nil || h.lower["nosuch"] != nil {
		t.Error("lower-layer lookup misbehaves")
	}
}

func TestHARMDOT(t *testing.T) {
	h := buildPaperHARM(t)
	dot := h.DOT()
	for _, want := range []string{
		"digraph harm",
		`"attacker" [shape=diamond]`,
		"OR(v1web, v2web, v3web, AND(v4web, v5web))",
		"peripheries=2", // target marking on db1
		"->",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	if dot != h.DOT() {
		t.Error("DOT must be deterministic")
	}
	// Patched HARM greys out the cleaned DNS host.
	patched := patchCriticals(t, h)
	if !strings.Contains(patched.DOT(), "style=dashed") {
		t.Error("patched DOT should grey out empty hosts")
	}
}

func TestPatchedDoesNotMutateOriginal(t *testing.T) {
	h := buildPaperHARM(t)
	before, err := h.Evaluate(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = patchCriticals(t, h)
	after, err := h.Evaluate(EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if before.NoEV != after.NoEV || before.NoAP != after.NoAP {
		t.Error("Patched must not mutate the original HARM")
	}
}

// nodesOnPaths returns the union of non-source nodes visited by the
// paths, sorted.
func nodesOnPaths(paths []Path) []string {
	set := make(map[string]bool)
	for _, p := range paths {
		for _, n := range p[1:] {
			set[n] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
