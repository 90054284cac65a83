package harm

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"redpatch/internal/attacktree"
	"redpatch/internal/mathx"
	"redpatch/internal/topology"
)

// quotientPaperTopology is the replica-collapsed paper network: one node
// per (role, stack) class.
func quotientPaperTopology(t *testing.T) *topology.Topology {
	t.Helper()
	top := topology.New()
	top.MustAddNode(topology.Node{Name: "attacker", Kind: topology.KindAttacker, Subnet: "internet"})
	top.MustAddNode(topology.Node{Name: "dns", Kind: topology.KindHost, Subnet: "dmz2", Role: "dns"})
	top.MustAddNode(topology.Node{Name: "web", Kind: topology.KindHost, Subnet: "dmz1", Role: "web"})
	top.MustAddNode(topology.Node{Name: "app", Kind: topology.KindHost, Subnet: "intranet", Role: "app"})
	top.MustAddNode(topology.Node{Name: "db", Kind: topology.KindHost, Subnet: "intranet", Role: "db"})
	for _, e := range [][2]string{
		{"attacker", "dns"}, {"attacker", "web"},
		{"dns", "web"}, {"web", "app"}, {"app", "db"},
	} {
		top.MustConnect(e[0], e[1])
	}
	return top
}

// evalFactored compiles f under opts over its sorted class list and
// evaluates it at mult; classes absent from mult count one replica.
func evalFactored(f *FactoredHARM, mult map[string]int, opts EvalOptions) (Metrics, error) {
	classes := f.h.Hosts()
	c, err := f.Compile(classes, opts)
	if err != nil {
		return Metrics{}, err
	}
	counts := make([]int, len(classes))
	for i, class := range classes {
		counts[i] = 1
		if n, ok := mult[class]; ok {
			counts[i] = n
		}
	}
	return c.Evaluate(counts)
}

// TestFactoredMatchesPaperTableII: the factored evaluation of the
// quotient model with multiplicities {web: 2, app: 2} must reproduce the
// paper's Table II metrics that the expanded base network produces.
func TestFactoredMatchesPaperTableII(t *testing.T) {
	f, err := BuildFactored(BuildInput{
		Topology:    quotientPaperTopology(t),
		Trees:       paperTrees(),
		TargetRoles: []string{"db"},
	})
	if err != nil {
		t.Fatal(err)
	}
	mult := map[string]int{"web": 2, "app": 2}
	m, err := evalFactored(f, mult, EvalOptions{})
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
	if m.ShortestPath != 3 {
		t.Errorf("ShortestPath = %d, want 3", m.ShortestPath)
	}

	ph, err := f.h.Patched(func(role string, l *attacktree.Leaf) bool {
		return !criticalRefs[l.Ref]
	})
	if err != nil {
		t.Fatal(err)
	}
	patched := &FactoredHARM{h: ph}
	after, err := evalFactored(patched, mult, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(after.AIM, 42.2, 1e-9) {
		t.Errorf("after AIM = %v, want 42.2", after.AIM)
	}
	if after.NoEV != 11 || after.NoAP != 4 || after.NoEP != 2 {
		t.Errorf("after NoEV/NoAP/NoEP = %d/%d/%d, want 11/4/2",
			after.NoEV, after.NoAP, after.NoEP)
	}
	// The patched DNS class must have left the quotient graph.
	if patched.h.upper.hasNode("dns") {
		t.Error("patched dns class should leave the quotient graph")
	}
}

// randomQuotient draws a random layered quotient model: 2-3 layers with
// 1-2 classes each, random per-class probabilities (including exact 0 and
// 1 endpoints), random multiplicities 1-4, and attacker entry into the
// first layer plus sometimes the second.
type randomQuotient struct {
	top     *topology.Topology
	trees   map[string]*attacktree.Tree
	mult    map[string]int
	targets []string
}

func drawQuotient(rng *rand.Rand) randomQuotient {
	q := randomQuotient{
		top:   topology.New(),
		trees: make(map[string]*attacktree.Tree),
		mult:  make(map[string]int),
	}
	q.top.MustAddNode(topology.Node{Name: "attacker", Kind: topology.KindAttacker})
	layers := 2 + rng.Intn(2)
	var prev []string
	for l := 0; l < layers; l++ {
		classes := 1 + rng.Intn(2)
		var cur []string
		for c := 0; c < classes; c++ {
			name := fmt.Sprintf("c%d_%d", l, c)
			q.top.MustAddNode(topology.Node{Name: name, Kind: topology.KindHost, Role: name})
			p := rng.Float64()
			switch rng.Intn(6) {
			case 0:
				p = 1 // certain compromise: zero mass on the not-compromised branch
			case 1:
				p = 0 // a prob-0 leaf still counts toward NoEV
			}
			q.trees[name] = attacktree.New(attacktree.NewLeaf("v"+name, 1+rng.Float64()*9, p))
			q.mult[name] = 1 + rng.Intn(2)
			cur = append(cur, name)
			if l == 0 || (l == 1 && rng.Intn(2) == 0) {
				q.top.MustConnect("attacker", name)
			}
		}
		for _, a := range prev {
			for _, b := range cur {
				q.top.MustConnect(a, b)
			}
		}
		if l == layers-1 {
			q.targets = cur
		}
		prev = cur
	}
	// Boost one class up to multiplicity 4; the rest stay at 1-2 so the
	// expanded oracle's exact ASP stays cheap enough to brute-force.
	classes := q.top.Hosts()
	boosted := classes[rng.Intn(len(classes))].Name
	q.mult[boosted] += rng.Intn(3)
	return q
}

// expand replicates every class into its multiplicity of identical,
// identically connected instances — the expanded topology the quotient
// stands for.
func (q randomQuotient) expand() (*topology.Topology, []string) {
	top := topology.New()
	top.MustAddNode(topology.Node{Name: "attacker", Kind: topology.KindAttacker})
	names := func(class string) []string {
		out := make([]string, q.mult[class])
		for i := range out {
			out[i] = fmt.Sprintf("%s_r%d", class, i)
		}
		return out
	}
	for _, n := range q.top.Hosts() {
		for _, inst := range names(n.Name) {
			top.MustAddNode(topology.Node{Name: inst, Kind: topology.KindHost, Role: n.Name})
		}
	}
	for _, n := range q.top.Nodes() {
		for _, to := range q.top.Successors(n.Name) {
			froms := []string{n.Name}
			if n.Kind != topology.KindAttacker {
				froms = names(n.Name)
			}
			for _, f := range froms {
				for _, t := range names(to) {
					top.MustConnect(f, t)
				}
			}
		}
	}
	var targetRoles []string
	targetRoles = append(targetRoles, q.targets...)
	return top, targetRoles
}

// TestFactoredEquivalenceRandom: on random layered quotients the factored
// evaluation must match the expanded-topology evaluation for every ASP
// strategy and OR rule, on every metric, to 1e-9.
func TestFactoredEquivalenceRandom(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := drawQuotient(rng)
		fh, err := BuildFactored(BuildInput{Topology: q.top, Trees: q.trees, TargetRoles: q.targets})
		if err != nil {
			t.Logf("seed %d: factored build: %v", seed, err)
			return false
		}
		expTop, targetRoles := q.expand()
		eh, err := Build(BuildInput{Topology: expTop, Trees: q.trees, TargetRoles: targetRoles})
		if err != nil {
			t.Logf("seed %d: expanded build: %v", seed, err)
			return false
		}
		for _, strat := range []ASPStrategy{ASPMaxPath, ASPIndependentPaths, ASPCompromise} {
			for _, rule := range []attacktree.ORRule{attacktree.ORMax, attacktree.ORNoisy} {
				opts := EvalOptions{Strategy: strat, ORRule: rule, MaxPathsExact: 24}
				fm, err := evalFactored(fh, q.mult, opts)
				if err != nil {
					t.Logf("seed %d strat %d: factored eval: %v", seed, strat, err)
					return false
				}
				em, err := eh.Evaluate(opts)
				if err != nil {
					t.Logf("seed %d strat %d: expanded eval: %v", seed, strat, err)
					return false
				}
				if fm.NoEV != em.NoEV || fm.NoAP != em.NoAP || fm.NoEP != em.NoEP ||
					fm.ShortestPath != em.ShortestPath {
					t.Logf("seed %d strat %d: counts %d/%d/%d/%d != %d/%d/%d/%d",
						seed, strat, fm.NoEV, fm.NoAP, fm.NoEP, fm.ShortestPath,
						em.NoEV, em.NoAP, em.NoEP, em.ShortestPath)
					return false
				}
				if !mathx.AlmostEqual(fm.AIM, em.AIM, 1e-9) {
					t.Logf("seed %d strat %d: AIM %v != %v", seed, strat, fm.AIM, em.AIM)
					return false
				}
				if !mathx.AlmostEqual(fm.ASP, em.ASP, 1e-9) {
					t.Logf("seed %d strat %d rule %d: ASP %.12f != %.12f",
						seed, strat, rule, fm.ASP, em.ASP)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFactoredEvaluateValidation covers the class-list and multiplicity
// error paths of the compiled model.
func TestFactoredEvaluateValidation(t *testing.T) {
	f, err := BuildFactored(BuildInput{
		Topology:    quotientPaperTopology(t),
		Trees:       paperTrees(),
		TargetRoles: []string{"db"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, classes := range map[string][]string{
		"unknown class":  {"app", "db", "dns", "nosuch"},
		"missing class":  {"app", "db", "dns"},
		"repeated class": {"app", "db", "dns", "dns"},
	} {
		if _, err := f.Compile(classes, EvalOptions{}); err == nil {
			t.Errorf("%s should fail to compile", name)
		}
	}
	if _, err := f.Compile([]string{"app", "db", "dns", "web"}, EvalOptions{Strategy: 99}); err == nil {
		t.Error("unknown ASP strategy should fail to compile")
	}
	c, err := f.Compile([]string{"web", "app", "db", "dns"}, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Evaluate([]int{0, 1, 1, 1}); err == nil {
		t.Error("zero multiplicity should fail")
	}
	if _, err := c.Evaluate([]int{1, 1, 1}); err == nil {
		t.Error("a count per class is required")
	}
	// All-1 multiplicities: identical to the expanded single-instance
	// model.
	m, err := c.Evaluate([]int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.NoAP != 2 {
		t.Errorf("NoAP with all-1 multiplicities = %d, want 2", m.NoAP)
	}
	// Counts follow the compiled class order: two web replicas double
	// both paths, which both cross web.
	m, err = c.Evaluate([]int{2, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.NoAP != 4 || m.NoEP != 3 {
		t.Errorf("NoAP/NoEP with two web replicas = %d/%d, want 4/3", m.NoAP, m.NoEP)
	}
}
