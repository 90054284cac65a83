package availability

import "fmt"

// Tier is one redundancy group of identical servers in the upper-layer
// network model: N servers that each go down for patching at rate
// LambdaEq and come back at rate MuEq (the aggregated rates of the
// lower-layer model).
type Tier struct {
	// Name labels the tier, e.g. "web".
	Name string
	// N is the number of redundant servers (paper: 1 or 2).
	N int
	// LambdaEq and MuEq are the aggregated per-server patch and recovery
	// rates per hour. A tier with LambdaEq == 0 never patches and is
	// always fully up.
	LambdaEq, MuEq float64
	// Group names the logical service tier this group of servers belongs
	// to; it defaults to Name. Heterogeneous redundancy (paper §V) is
	// modelled as several tiers sharing a Group: the service is up while
	// at least one server across the group is up, even though the
	// replicas patch and recover at different rates.
	Group string
}

// group returns the effective logical tier.
func (t Tier) group() string {
	if t.Group != "" {
		return t.Group
	}
	return t.Name
}

// Validate checks tier sanity.
func (t Tier) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("availability: tier with empty name")
	}
	if t.N <= 0 {
		return fmt.Errorf("availability: tier %s: non-positive size %d", t.Name, t.N)
	}
	if t.LambdaEq < 0 {
		return fmt.Errorf("availability: tier %s: negative lambda", t.Name)
	}
	if t.LambdaEq > 0 && t.MuEq <= 0 {
		return fmt.Errorf("availability: tier %s: patching without recovery", t.Name)
	}
	return nil
}

// NetworkModel is the upper-layer SRN input: one Tier per server type.
type NetworkModel struct {
	Tiers []Tier
	// Quorum optionally raises the number of servers a logical group
	// needs for the service to count as up (k-out-of-n, e.g. a database
	// cluster needing a majority), keyed by group name. Groups absent
	// from the map need one server (the paper's Table VI semantics).
	Quorum map[string]int
}

// quorumOf returns the required up-count of a group.
func (nm NetworkModel) quorumOf(group string) int {
	if q, ok := nm.Quorum[group]; ok {
		return q
	}
	return 1
}

// Validate checks the model.
func (nm NetworkModel) Validate() error {
	if len(nm.Tiers) == 0 {
		return fmt.Errorf("availability: network model with no tiers")
	}
	seen := make(map[string]bool, len(nm.Tiers))
	for _, t := range nm.Tiers {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.Name] {
			return fmt.Errorf("availability: duplicate tier %s", t.Name)
		}
		seen[t.Name] = true
	}
	if len(nm.Quorum) > 0 {
		groupSize := make(map[string]int)
		for _, t := range nm.Tiers {
			groupSize[t.group()] += t.N
		}
		for group, q := range nm.Quorum {
			size, ok := groupSize[group]
			if !ok {
				return fmt.Errorf("availability: quorum for unknown group %q", group)
			}
			if q < 1 || q > size {
				return fmt.Errorf("availability: quorum %d for group %q outside [1, %d]", q, group, size)
			}
		}
	}
	return nil
}

// TotalServers returns the number of servers across tiers.
func (nm NetworkModel) TotalServers() int {
	n := 0
	for _, t := range nm.Tiers {
		n += t.N
	}
	return n
}

// Groups returns the tier indices of each logical group, in order of
// first appearance, and the number of servers each group needs up: its
// quorum, by default one.
func (nm NetworkModel) Groups() (groups [][]int, quorums []int) {
	groups = groupIndices(nm)
	quorums = make([]int, len(groups))
	for g, idxs := range groups {
		quorums[g] = nm.quorumOf(nm.Tiers[idxs[0]].group())
	}
	return groups, quorums
}

// groupIndices returns tier indices per logical group in deterministic
// (first appearance) order.
func groupIndices(nm NetworkModel) [][]int {
	order := make(map[string]int)
	var groups [][]int
	for i, t := range nm.Tiers {
		g := t.group()
		idx, ok := order[g]
		if !ok {
			idx = len(groups)
			order[g] = idx
			groups = append(groups, nil)
		}
		groups[idx] = append(groups[idx], i)
	}
	return groups
}

// NetworkSolution reports the upper-layer results.
type NetworkSolution struct {
	// COA is the capacity oriented availability (expected steady-state
	// reward of the Table VI function).
	COA float64
	// ServiceAvailability is P(every tier has at least one server up).
	ServiceAvailability float64
	// TierAllUp maps tier name to P(every server of the tier up).
	TierAllUp map[string]float64
	// States is the size of the solved CTMC: the tangible product chain
	// the tiers span. The factored path never materializes it but reports
	// the same number, so both solvers account state space identically.
	States int
	// Factored reports which solver produced the solution: true for the
	// per-tier factored path, false for the generated SRN.
	Factored bool
}

func pow(x float64, n int) float64 {
	p := 1.0
	for i := 0; i < n; i++ {
		p *= x
	}
	return p
}
