package harm

import (
	"fmt"
	"slices"

	"redpatch/internal/mathx"
)

// This file implements the factored (replica-symmetric) security
// evaluator. Redundant designs repeat identical hosts: every replica of a
// (role, stack) class runs the same attack tree and — because tiers
// connect all-to-all — has exactly the same reachability. The expanded
// HARM therefore carries no information the replica-collapsed quotient
// does not: its attack paths are the quotient's paths with one instance
// chosen per class, so path counts multiply by the class multiplicities
// and the exact compromise probability factors per class.
//
// Concretely, for a quotient path P over classes c with multiplicities
// n_c and per-instance compromise probabilities p_c:
//
//   - every expanded path along P has probability prod_{c in P} p_c and
//     there are prod_{c in P} n_c of them;
//   - "some expanded path along P is fully compromised" is exactly
//     "every class on P has at least one compromised instance", an event
//     of probability prod_{c in P} (1 - (1-p_c)^{n_c}) with the class
//     events independent across classes — any choice of compromised
//     instances forms a valid expanded path precisely because inter-tier
//     connectivity is all-to-all.
//
// So ASP under every strategy, AIM, NoAP, NoEP, NoEV and the shortest
// path all follow from the quotient in closed form. A replica-R design
// evaluates on a graph whose size is independent of R; the expanded
// evaluator (Evaluate) remains as the cross-validation oracle
// (TestFactoredSecurityEquivalence).

// FactoredHARM is the quotient security model: a HARM whose hosts are
// replica classes rather than host instances. Build it with
// BuildFactored over the replica-collapsed topology, Compile it once,
// and evaluate the compiled model with per-class multiplicities. A
// FactoredHARM is immutable after construction, so one model serves
// every replica vector of a design family.
type FactoredHARM struct {
	h *HARM
}

// BuildFactored constructs the factored model from a quotient topology:
// one host node per replica class, with the class's attack tree resolved
// through the usual role/instance template rules. The topology must
// satisfy the quotient premise — within a class all replicas are
// identical and identically connected — which holds by construction for
// topologies produced by replica-collapsing a tiered design
// (paperdata.SpecRolloutQuotient).
func BuildFactored(in BuildInput) (*FactoredHARM, error) {
	h, err := Build(in)
	if err != nil {
		return nil, err
	}
	return &FactoredHARM{h: h}, nil
}

// Compiled is a factored model lowered, under fixed EvalOptions, into
// class-indexed arrays. Everything about its metrics that does not
// depend on replica counts is computed once by Compile: the per-class
// tree metrics, the quotient paths with their impact and probability,
// the entry classes, the shortest path and the exact-ASP plan. Evaluate
// is then arithmetic over the per-class counts. A Compiled model is
// immutable and safe for concurrent Evaluate calls.
type Compiled struct {
	classes  []string  // class host names, in the order of Evaluate's counts
	leaves   []int     // per class: exploitable vulnerabilities (tree leaves)
	prob     []float64 // per class: tree compromise probability
	strategy ASPStrategy
	// targets is false when no target is attackable; only NoEV is
	// defined then.
	targets  bool
	paths    []compiledPath
	entries  []int // distinct entry classes, in path order
	aim      float64
	shortest int
	maxProb  float64 // the ASPMaxPath answer: multiplicity-blind
	// ASPCompromise: the path bitmasks and algorithm, and the class of
	// each bitmask host.
	exact        exactASP
	exactClasses []int
}

// compiledPath is one quotient path: its class indices (attacker
// excluded) and its multiplicity-blind impact and probability.
type compiledPath struct {
	classes      []int
	impact, prob float64
}

// Compile lowers the factored model under opts. classes lists every
// class host of the quotient exactly once, in the order Evaluate's
// counts will follow.
//
// The MaxPaths and MaxPathsExact caps apply to the quotient
// enumeration, so designs whose expanded path counts would blow past
// the expanded evaluator's limits stay exactly evaluable here — that
// is the point.
func (f *FactoredHARM) Compile(classes []string, opts EvalOptions) (*Compiled, error) {
	h := f.h
	opts = opts.withDefaults()
	if len(classes) != len(h.lower) {
		return nil, fmt.Errorf("harm: %d classes listed for a model of %d", len(classes), len(h.lower))
	}
	c := &Compiled{
		classes:  append([]string(nil), classes...),
		leaves:   make([]int, len(classes)),
		prob:     make([]float64, len(classes)),
		strategy: opts.Strategy,
		targets:  len(h.targets) > 0,
	}
	index := make(map[string]int, len(classes))
	impact := make([]float64, len(classes))
	for i, class := range classes {
		tr, ok := h.lower[class]
		if !ok {
			return nil, fmt.Errorf("harm: unknown class %q", class)
		}
		if _, dup := index[class]; dup {
			return nil, fmt.Errorf("harm: class %q listed twice", class)
		}
		index[class] = i
		impact[i], c.prob[i] = tr.Metrics(opts.ORRule)
		c.leaves[i] = tr.LeafCount()
	}
	if !c.targets {
		return c, nil
	}
	switch opts.Strategy {
	case ASPMaxPath, ASPIndependentPaths, ASPCompromise:
	default:
		return nil, fmt.Errorf("harm: unknown ASP strategy %d", opts.Strategy)
	}
	paths, err := h.upper.allPaths(h.attacker, h.targets, allPathsOptions{MaxPaths: opts.MaxPaths})
	if err != nil {
		return nil, fmt.Errorf("harm: %w", err)
	}
	c.paths = make([]compiledPath, len(paths))
	for i, p := range paths {
		cp := compiledPath{classes: make([]int, len(p)-1), prob: 1}
		for j, class := range p[1:] {
			k := index[class]
			cp.classes[j] = k
			cp.impact += impact[k]
			cp.prob *= c.prob[k]
		}
		c.paths[i] = cp
		if len(cp.classes) > 0 && !slices.Contains(c.entries, cp.classes[0]) {
			c.entries = append(c.entries, cp.classes[0])
		}
		if cp.impact > c.aim {
			c.aim = cp.impact
		}
		if hops := len(p) - 1; c.shortest == 0 || hops < c.shortest {
			c.shortest = hops
		}
		// Every expanded path along a quotient path shares its
		// probability, so the maximum is multiplicity-blind.
		if cp.prob > c.maxProb {
			c.maxProb = cp.prob
		}
	}
	if opts.Strategy == ASPCompromise {
		exact, hosts, err := planExactASP(paths, opts.MaxPathsExact)
		if err != nil {
			return nil, err
		}
		c.exact = exact
		c.exactClasses = make([]int, len(hosts))
		for i, host := range hosts {
			c.exactClasses[i] = index[host]
		}
	}
	return c, nil
}

// Evaluate computes the expanded-topology security metrics in closed
// form from per-class replica counts, aligned with the classes the
// model was compiled with. It leaves Metrics.Paths nil: the per-path
// detail is the expanded evaluator's (HARM.Evaluate), and a compiled
// evaluation allocates nothing.
func (c *Compiled) Evaluate(counts []int) (Metrics, error) {
	if len(counts) != len(c.classes) {
		return Metrics{}, fmt.Errorf("harm: %d multiplicities for %d classes", len(counts), len(c.classes))
	}
	var m Metrics
	for i, n := range counts {
		if n < 1 {
			return Metrics{}, fmt.Errorf("harm: class %q multiplicity %d below 1", c.classes[i], n)
		}
		m.NoEV += n * c.leaves[i]
	}
	if !c.targets {
		return m, nil
	}
	m.AIM, m.ShortestPath = c.aim, c.shortest
	q := 1.0 // P(no path succeeds) for ASPIndependentPaths
	for _, p := range c.paths {
		count := 1
		for _, k := range p.classes {
			count *= counts[k]
		}
		m.NoAP += count
		if c.strategy == ASPIndependentPaths {
			q *= intPow(1-p.prob, count)
		}
	}
	for _, k := range c.entries {
		m.NoEP += counts[k]
	}
	switch c.strategy {
	case ASPMaxPath:
		m.ASP = c.maxProb
	case ASPIndependentPaths:
		m.ASP = mathx.Clamp01(1 - q)
	case ASPCompromise:
		// Per-class effective probability: at least one of the n_c
		// replicas compromised. The class events are independent, so the
		// expanded exact computation reduces to the same machinery over
		// quotient paths. planExactASP caps the hosts at 64.
		var buf [64]float64
		hostProb := buf[:len(c.exactClasses)]
		for i, k := range c.exactClasses {
			hostProb[i] = mathx.Clamp01(1 - intPow(1-c.prob[k], counts[k]))
		}
		m.ASP = c.exact.probability(hostProb)
	}
	return m, nil
}

// intPow raises x to a non-negative integer power by binary
// exponentiation: exact for the 0/1 endpoints the attack trees produce,
// deterministic, and O(log n) even for the path-multiplicity exponents
// of large replica counts.
func intPow(x float64, n int) float64 {
	p := 1.0
	for n > 0 {
		if n&1 == 1 {
			p *= x
		}
		x *= x
		n >>= 1
	}
	return p
}
