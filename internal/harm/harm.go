// Package harm implements the two-layered Hierarchical Attack
// Representation Model of Hong & Kim that the paper uses as its security
// model: the upper layer is an attack graph over host instances
// (graph.go), the lower layer an attack tree per host
// (internal/attacktree). The package builds HARMs from a network topology
// plus per-role attack-tree templates, applies the security-patch
// transformation, and evaluates the paper's five security metrics —
// attack impact (AIM), attack success probability (ASP), number of
// exploitable vulnerabilities (NoEV), number of attack paths (NoAP) and
// number of entry points (NoEP).
//
// Replica-redundant networks repeat identical hosts; the factored
// evaluator (factored.go) exploits that symmetry to compute the same
// metrics on a replica-collapsed quotient model in closed form.
package harm

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"redpatch/internal/attacktree"
	"redpatch/internal/mathx"
	"redpatch/internal/topology"
)

// BuildInput carries everything the security model generator needs.
type BuildInput struct {
	// Topology is the network with one attacker node and role-annotated
	// hosts.
	Topology *topology.Topology
	// Trees maps a host role (e.g. "web") to its attack-tree template.
	// Every host of that role receives a clone of the template. Roles
	// without a template are treated as having no exploitable
	// vulnerabilities.
	Trees map[string]*attacktree.Tree
	// InstanceTrees overrides the role template for specific host
	// instances by name — the paper's §V heterogeneous redundancy, where
	// replicas of one tier run different software stacks.
	InstanceTrees map[string]*attacktree.Tree
	// TargetRoles are the roles whose hosts are the attacker's goal
	// (the database servers in the paper).
	TargetRoles []string
}

// HARM is a two-layered hierarchical attack representation model.
type HARM struct {
	top       *topology.Topology
	roles     map[string]*attacktree.Tree // templates by role (already pruned for patched HARMs)
	instances map[string]*attacktree.Tree // per-instance overrides (already pruned for patched HARMs)
	upper     *graph
	lower     map[string]*attacktree.Tree // per host instance; replicas of one role share the template tree
	hosts     []string                    // sorted host names (keys of lower)
	attacker  string
	targets   []string
	tgtRoles  []string
}

// emptyTree is the shared stand-in for hosts without an attack tree. The
// lower layer aliases it rather than allocating one per host; Tree values
// are read-only once built, so sharing is safe.
var emptyTree = attacktree.New(nil)

// Build constructs the HARM: the upper layer contains the attacker and
// every host whose attack tree is non-empty (a host without exploitable
// vulnerabilities cannot be compromised, so it cannot appear on an attack
// path); the lower layer references one cloned attack tree per role (or
// per overridden instance), shared across that role's replicas.
func Build(in BuildInput) (*HARM, error) {
	if in.Topology == nil {
		return nil, errors.New("harm: nil topology")
	}
	if err := in.Topology.Validate(); err != nil {
		return nil, fmt.Errorf("harm: %w", err)
	}
	attackers := in.Topology.Attackers()
	if len(attackers) != 1 {
		return nil, fmt.Errorf("harm: want exactly one attacker node, have %d", len(attackers))
	}
	if len(in.TargetRoles) == 0 {
		return nil, errors.New("harm: no target roles")
	}

	roles := make(map[string]*attacktree.Tree, len(in.Trees))
	for role, tr := range in.Trees {
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("harm: role %q: %w", role, err)
		}
		roles[role] = tr.Clone()
	}
	instances := make(map[string]*attacktree.Tree, len(in.InstanceTrees))
	for host, tr := range in.InstanceTrees {
		if _, ok := in.Topology.Node(host); !ok {
			return nil, fmt.Errorf("harm: instance tree for unknown host %q", host)
		}
		if err := tr.Validate(); err != nil {
			return nil, fmt.Errorf("harm: host %q: %w", host, err)
		}
		instances[host] = tr.Clone()
	}
	return assemble(in.Topology, roles, instances, attackers[0].Name, in.TargetRoles)
}

// assemble wires a HARM from an already-validated topology and
// already-owned attack trees — the shared tail of Build and Patched.
// Hosts alias the role (or instance) tree directly instead of cloning it
// per replica; the trees are never mutated after assembly.
func assemble(top *topology.Topology, roles, instances map[string]*attacktree.Tree, attacker string, targetRoles []string) (*HARM, error) {
	h := &HARM{
		top:       top,
		roles:     roles,
		instances: instances,
		lower:     make(map[string]*attacktree.Tree),
		attacker:  attacker,
		tgtRoles:  append([]string(nil), targetRoles...),
	}

	targetRole := make(map[string]bool, len(targetRoles))
	for _, r := range targetRoles {
		targetRole[r] = true
	}

	upper := newGraph()
	if err := upper.addNode(h.attacker); err != nil {
		return nil, err
	}
	for _, host := range top.Hosts() {
		tr := instances[host.Name]
		if tr == nil {
			tr = roles[host.Role]
		}
		if tr == nil {
			tr = emptyTree
		}
		h.lower[host.Name] = tr
		h.hosts = append(h.hosts, host.Name)
		if tr.Empty() {
			continue // not attackable: excluded from the upper layer
		}
		if err := upper.addNode(host.Name); err != nil {
			return nil, err
		}
		if targetRole[host.Role] {
			h.targets = append(h.targets, host.Name)
		}
	}
	sort.Strings(h.hosts)
	sort.Strings(h.targets)
	if len(h.targets) == 0 {
		// Legal (e.g. every target patched clean); path metrics are zero.
		h.upper = upper
		return h, nil
	}
	for _, n := range top.Nodes() {
		if !upper.hasNode(n.Name) {
			continue
		}
		for _, to := range top.Successors(n.Name) {
			if upper.hasNode(to) {
				if err := upper.addEdge(n.Name, to); err != nil {
					return nil, err
				}
			}
		}
	}
	h.upper = upper
	return h, nil
}

// Patched returns a new HARM in which every attack-tree leaf rejected by
// keep has been removed (the paper's patch transformation: patching a
// vulnerability deletes its leaf, AND-combinations collapse, hosts left
// with empty trees drop out of the attack graph). keep receives the host
// role together with the leaf; for instance-tree overrides the role is
// the host's role from the topology. The patched model overlays pruned
// trees on the already-validated topology — nothing is re-validated and
// no per-host tree is cloned.
func (h *HARM) Patched(keep func(role string, leaf *attacktree.Leaf) bool) (*HARM, error) {
	pruned := make(map[string]*attacktree.Tree, len(h.roles))
	for role, tr := range h.roles {
		role := role
		pruned[role] = tr.Prune(func(l *attacktree.Leaf) bool { return keep(role, l) })
	}
	prunedInst := make(map[string]*attacktree.Tree, len(h.instances))
	for host, tr := range h.instances {
		role := ""
		if n, ok := h.top.Node(host); ok {
			role = n.Role
		}
		prunedInst[host] = tr.Prune(func(l *attacktree.Leaf) bool { return keep(role, l) })
	}
	return assemble(h.top, pruned, prunedInst, h.attacker, h.tgtRoles)
}

// Hosts returns every host instance name (attackable or not), sorted.
func (h *HARM) Hosts() []string {
	return append([]string(nil), h.hosts...)
}

// ASPStrategy selects how per-path success probabilities aggregate to the
// network-level ASP. More than one is provided because the paper does not
// state its rule and none of them reproduces its after-patch ASP of 0.265
// exactly; the constants below say what each one gets right and wrong.
type ASPStrategy int

// ASP aggregation strategies.
const (
	// ASPMaxPath takes the maximum over attack paths of the product of
	// per-host probabilities — the rule in the framework papers the
	// authors cite ([18], [20]). Insensitive to redundancy.
	ASPMaxPath ASPStrategy = iota + 1
	// ASPIndependentPaths combines path probabilities as 1 - prod(1-p):
	// each path is an independent chance. Over-counts paths that share
	// hosts.
	ASPIndependentPaths
	// ASPCompromise computes the exact probability that at least one
	// attack path is fully compromised when each host is independently
	// compromised with its tree probability (inclusion–exclusion over
	// paths). This is the package default: it grows with redundancy, as
	// the paper's Figure 6(b) requires, without over-counting shared
	// hosts.
	ASPCompromise
)

// EvalOptions configures metric evaluation. The zero value applies the
// documented defaults.
type EvalOptions struct {
	// Strategy defaults to ASPCompromise.
	Strategy ASPStrategy
	// ORRule defaults to attacktree.ORMax (the HARM literature rule).
	ORRule attacktree.ORRule
	// MaxPaths caps attack-path enumeration; default 100000.
	MaxPaths int
	// MaxPathsExact caps the exponent of the exact ASPCompromise
	// computation: min(#paths, #hosts-on-paths) must not exceed it;
	// default 20.
	MaxPathsExact int
}

func (o EvalOptions) withDefaults() EvalOptions {
	if o.Strategy == 0 {
		o.Strategy = ASPCompromise
	}
	if o.ORRule == 0 {
		o.ORRule = attacktree.ORMax
	}
	if o.MaxPaths <= 0 {
		o.MaxPaths = 100000
	}
	if o.MaxPathsExact <= 0 {
		o.MaxPathsExact = 20
	}
	return o
}

// PathMetric is the per-path detail underlying AIM and ASP.
type PathMetric struct {
	Path   Path
	Impact float64 // sum of host impacts along the path
	Prob   float64 // product of host probabilities along the path
}

// Metrics are the paper's five security metrics plus per-path detail.
type Metrics struct {
	// AIM is the network-level attack impact: max over paths of the path
	// impact (paper §III-C).
	AIM float64
	// ASP is the network-level attack success probability under the
	// configured strategy.
	ASP float64
	// NoEV is the number of exploitable vulnerabilities summed over every
	// host instance (paper Table II counting rule).
	NoEV int
	// NoAP is the number of attack paths.
	NoAP int
	// NoEP is the number of entry points (distinct first hops).
	NoEP int
	// ShortestPath is the minimum number of hosts the attacker must
	// compromise to reach a target (0 when no path exists) — the
	// "shortest attack path" metric of the security-metrics survey the
	// paper cites.
	ShortestPath int
	// Paths is the per-path detail of an expanded-topology evaluation,
	// in deterministic order. A compiled (factored) evaluation leaves
	// it nil.
	Paths []PathMetric
}

// ErrExactASPInfeasible reports that the exact compromise probability
// cannot be computed within the configured limits; pick another strategy
// or raise the caps.
var ErrExactASPInfeasible = errors.New("harm: exact ASP computation infeasible")

// treeMetrics evaluates impact, probability and leaf count once per
// distinct tree. Replicas alias their role's tree, so an n-replica tier
// costs one tree walk instead of n.
type treeMetrics struct {
	impact, prob float64
	leaves       int
}

func metricsByTree(lower map[string]*attacktree.Tree, rule attacktree.ORRule) map[*attacktree.Tree]treeMetrics {
	out := make(map[*attacktree.Tree]treeMetrics, len(lower))
	for _, tr := range lower {
		if _, ok := out[tr]; ok {
			continue
		}
		im, pr := tr.Metrics(rule)
		out[tr] = treeMetrics{impact: im, prob: pr, leaves: tr.LeafCount()}
	}
	return out
}

// Evaluate computes the security metrics of the HARM.
func (h *HARM) Evaluate(opts EvalOptions) (Metrics, error) {
	opts = opts.withDefaults()

	byTree := metricsByTree(h.lower, opts.ORRule)
	var m Metrics
	for _, tr := range h.lower {
		m.NoEV += byTree[tr].leaves
	}
	if len(h.targets) == 0 {
		return m, nil
	}
	paths, err := h.upper.allPaths(h.attacker, h.targets, allPathsOptions{MaxPaths: opts.MaxPaths})
	if err != nil {
		return Metrics{}, fmt.Errorf("harm: %w", err)
	}
	m.NoAP = len(paths)
	m.NoEP = len(entryPoints(paths))

	prob := make(map[string]float64, len(h.lower))
	for host, tr := range h.lower {
		prob[host] = byTree[tr].prob
	}

	m.Paths = make([]PathMetric, len(paths))
	for i, p := range paths {
		pm := PathMetric{Path: p, Prob: 1}
		for _, host := range p[1:] { // skip the attacker node
			tm := byTree[h.lower[host]]
			pm.Impact += tm.impact
			pm.Prob *= tm.prob
		}
		m.Paths[i] = pm
		if pm.Impact > m.AIM {
			m.AIM = pm.Impact
		}
		if hops := len(p) - 1; m.ShortestPath == 0 || hops < m.ShortestPath {
			m.ShortestPath = hops
		}
	}

	switch opts.Strategy {
	case ASPMaxPath:
		for _, pm := range m.Paths {
			if pm.Prob > m.ASP {
				m.ASP = pm.Prob
			}
		}
	case ASPIndependentPaths:
		q := 1.0
		for _, pm := range m.Paths {
			q *= 1 - pm.Prob
		}
		m.ASP = mathx.Clamp01(1 - q)
	case ASPCompromise:
		asp, err := compromiseProbability(paths, prob, opts.MaxPathsExact)
		if err != nil {
			return Metrics{}, err
		}
		m.ASP = asp
	default:
		return Metrics{}, fmt.Errorf("harm: unknown ASP strategy %d", opts.Strategy)
	}
	return m, nil
}

// compromiseProbability computes P(at least one path fully compromised)
// with hosts compromised independently with probability prob[host].
func compromiseProbability(paths []Path, prob map[string]float64, maxExact int) (float64, error) {
	exact, hosts, err := planExactASP(paths, maxExact)
	if err != nil {
		return 0, err
	}
	hostProb := make([]float64, len(hosts))
	for i, host := range hosts {
		hostProb[i] = prob[host]
	}
	return exact.probability(hostProb), nil
}

// exactASP is the replica-count-independent half of the exact
// compromise probability: each path as a bitmask over the hosts on any
// path, and which exact algorithm is cheaper.
type exactASP struct {
	pathMask  []uint64
	enumerate bool // host enumeration rather than inclusion–exclusion
}

// planExactASP indexes the hosts on the paths in first-appearance order
// (returned as hosts, the bit order of the masks) and picks the cheaper
// exact algorithm: inclusion–exclusion over path subsets (2^paths
// terms) or direct enumeration of host-compromise combinations
// (2^hosts terms). maxExact caps the chosen exponent; redundant tiered
// networks have few distinct hosts even when their path counts
// multiply, so at least one algorithm usually applies.
func planExactASP(paths []Path, maxExact int) (exactASP, []string, error) {
	k := len(paths)
	if k == 0 {
		return exactASP{}, nil, nil
	}
	// Index the hosts appearing on any path; 64 suffice for a bitmask.
	hostIdx := make(map[string]int)
	var hosts []string
	for _, p := range paths {
		for _, host := range p[1:] {
			if _, ok := hostIdx[host]; !ok {
				hostIdx[host] = len(hosts)
				hosts = append(hosts, host)
			}
		}
	}
	h := len(hosts)
	if h > 64 {
		return exactASP{}, nil, fmt.Errorf("%w: %d distinct hosts exceed 64", ErrExactASPInfeasible, h)
	}
	pathMask := make([]uint64, k)
	for i, p := range paths {
		var mask uint64
		for _, host := range p[1:] {
			mask |= 1 << uint(hostIdx[host])
		}
		pathMask[i] = mask
	}
	switch {
	case k <= maxExact && (k <= h || h > maxExact):
		return exactASP{pathMask: pathMask}, hosts, nil
	case h <= maxExact:
		return exactASP{pathMask: pathMask, enumerate: true}, hosts, nil
	default:
		return exactASP{}, nil, fmt.Errorf("%w: %d paths over %d hosts exceed cap %d", ErrExactASPInfeasible, k, h, maxExact)
	}
}

// probability evaluates the plan at per-host compromise probabilities,
// indexed by mask bit.
func (e exactASP) probability(hostProb []float64) float64 {
	switch {
	case len(e.pathMask) == 0:
		return 0
	case e.enumerate:
		return mathx.Clamp01(hostEnumeration(e.pathMask, hostProb, 0, 0, 1))
	default:
		return mathx.Clamp01(inclusionExclusion(e.pathMask, hostProb, 0, 0, 1, -1))
	}
}

// inclusionExclusion sums, for every non-empty subset S of paths, the
// probability that every host on the union of S is compromised, with sign
// (-1)^(|S|+1). The include/exclude recursion from path i on carries the
// union mask and its probability product down the call tree, multiplying
// in only the hosts a path newly adds — no 2^k scratch table, no
// per-subset product from scratch.
func inclusionExclusion(pathMask []uint64, hostProb []float64, i int, mask uint64, p, sign float64) float64 {
	if i == len(pathMask) {
		if mask == 0 {
			return 0 // the empty subset contributes nothing
		}
		return sign * p
	}
	total := inclusionExclusion(pathMask, hostProb, i+1, mask, p, sign)
	pin := p
	for m := pathMask[i] &^ mask; m != 0; m &= m - 1 {
		pin *= hostProb[bits.TrailingZeros64(m)]
	}
	return total + inclusionExclusion(pathMask, hostProb, i+1, mask|pathMask[i], pin, -sign)
}

// hostEnumeration sums the probability of every host-compromise
// combination in which at least one path is fully compromised. The
// recursion from host i on accumulates the combination probability
// incrementally and abandons subtrees whose probability has already
// collapsed to zero (hosts with certain compromise contribute no mass
// to their not-compromised branch).
func hostEnumeration(pathMask []uint64, hostProb []float64, i int, mask uint64, p float64) float64 {
	if p == 0 {
		return 0
	}
	if i == len(hostProb) {
		for _, pm := range pathMask {
			if pm&mask == pm {
				return p
			}
		}
		return 0
	}
	return hostEnumeration(pathMask, hostProb, i+1, mask, p*(1-hostProb[i])) +
		hostEnumeration(pathMask, hostProb, i+1, mask|1<<uint(i), p*hostProb[i])
}
