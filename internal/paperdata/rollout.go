package paperdata

import (
	"slices"
	"strconv"
)

// A redundant design repeats identical servers: within one (logical
// tier, stack) class every replica runs the same attack tree and —
// because SpecTopology wires tiers all-to-all — is identically
// connected, which is exactly the premise of harm.FactoredHARM. The
// quotient collapses each class to one host whose multiplicity is the
// class's replica count. Mid-rollout a class is mixed-version: some
// replicas already run the patched stack, the rest still run the
// unpatched one. Within each sub-population the replicas are still
// identical and identically connected, so a rollout point quotients to
// at most two classes per (logical tier, stack) pair. An atomic design
// is the rollout at its two endpoints: every class unpatched (before
// the patch round) or every class patched (after it).

// RolloutQuotient is the mixed-version quotient of a design at one
// rollout point.
type RolloutQuotient struct {
	// Quotient is the sub-classed quotient spec: one single-replica tier
	// group per (logical tier, stack, patch-state) class. A class whose
	// patched count is 0 or its full size contributes one group; a mixed
	// class contributes two (unpatched first, then patched), wired
	// identically by SpecTopology since they share role and stack.
	Quotient DesignSpec
	// Hosts are the quotient topology's class host names, one per
	// Quotient tier, in the same order.
	Hosts []string
	// Counts are the class multiplicities (replica counts), aligned with
	// Hosts.
	Counts []int
	// PatchedHosts maps the host names of patched sub-classes to their
	// stack, for per-instance tree pruning downstream.
	PatchedHosts map[string]string
	// Structure is the replica-independent rollout structure key. The
	// quotient spec's own key cannot distinguish which of two duplicate
	// groups is the patched one, so the patch-state pattern is appended.
	Structure string
}

// LogicalIndices returns, for each logical tier in Logical() order, the
// spec.Tiers indices of its groups — the original-index companion of
// Logical(), for mapping per-group data (rollout fractions, patched
// counts) kept in spec order onto the logical layering.
func (s DesignSpec) LogicalIndices() [][]int {
	index := make(map[string]int)
	var out [][]int
	for i, t := range s.Tiers {
		j, ok := index[t.Role]
		if !ok {
			j = len(out)
			index[t.Role] = j
			out = append(out, nil)
		}
		out[j] = append(out[j], i)
	}
	return out
}

// AppendLogicalOrder appends the spec.Tiers indices in Logical() order
// to dst — logical tiers in first-appearance order, each tier's groups
// in spec order. It is LogicalIndices flattened, and allocates nothing
// when dst has room.
func (s DesignSpec) AppendLogicalOrder(dst []int) []int {
	for i, t := range s.Tiers {
		if slices.ContainsFunc(s.Tiers[:i], func(o TierSpec) bool { return o.Role == t.Role }) {
			continue // its logical tier was appended at its first group
		}
		for j := i; j < len(s.Tiers); j++ {
			if s.Tiers[j].Role == t.Role {
				dst = append(dst, j)
			}
		}
	}
	return dst
}

// SpecRolloutQuotient collapses a spec's replicas into mixed-version
// classes at one rollout point: patched[i] of spec.Tiers[i]'s replicas
// run the patched stack. Per (logical tier, stack) class the patched
// counts of its groups merge; a class split by the rollout yields two
// quotient groups (unpatched, then patched). The degenerate points —
// all-zero and all-full patched counts — share one quotient spec, host
// names and multiplicities and differ only in the structure key's
// patch-state markers. The security memo's miss path builds its model
// from this quotient; FoldRollout computes its Structure and Counts
// without building it. The spec must be valid and every patched count
// in range, as for FoldRollout.
func SpecRolloutQuotient(spec DesignSpec, patched []int) RolloutQuotient {
	quotient := DesignSpec{Name: spec.Name + "/rollout"}
	var counts []int     // sub-class multiplicities, in quotient tier order
	var isPatched []bool // patch state per quotient tier
	var markers []byte   // 'u'/'p' pattern appended to the structure key
	for _, idxs := range spec.LogicalIndices() {
		role := spec.Tiers[idxs[0]].Role
		type agg struct{ total, patched int }
		classes := make(map[string]*agg, len(idxs))
		var order []string
		for _, i := range idxs {
			g := spec.Tiers[i]
			stack := g.Stack()
			a, ok := classes[stack]
			if !ok {
				a = &agg{}
				classes[stack] = a
				order = append(order, stack)
			}
			a.total += g.Replicas
			a.patched += patched[i]
		}
		for _, stack := range order {
			a := classes[stack]
			variant := ""
			if stack != role {
				variant = stack
			}
			appendClass := func(n int, p bool) {
				quotient.Tiers = append(quotient.Tiers, TierSpec{Role: role, Replicas: 1, Variant: variant})
				counts = append(counts, n)
				isPatched = append(isPatched, p)
				if p {
					markers = append(markers, 'p')
				} else {
					markers = append(markers, 'u')
				}
			}
			switch {
			case a.patched == 0:
				appendClass(a.total, false)
			case a.patched == a.total:
				appendClass(a.total, true)
			default:
				appendClass(a.total-a.patched, false)
				appendClass(a.patched, true)
			}
		}
	}

	// Class host names replay SpecTopology's stack-keyed counter over the
	// quotient spec; the duplicate groups of a split class get consecutive
	// numbers ("web1" unpatched, "web2" patched). Logical() preserves the
	// append order — roles were appended contiguously in first-appearance
	// order — so the flat index gi walks the tiers exactly as built.
	rq := RolloutQuotient{
		Quotient:     quotient,
		Hosts:        make([]string, 0, len(quotient.Tiers)),
		Counts:       counts,
		PatchedHosts: make(map[string]string),
		Structure:    quotient.Key() + "|" + string(markers),
	}
	counter := make(map[string]int)
	gi := 0
	for _, lt := range quotient.Logical() {
		for _, g := range lt.Groups {
			stack := g.Stack()
			counter[stack]++
			name := stack + strconv.Itoa(counter[stack])
			rq.Hosts = append(rq.Hosts, name)
			if isPatched[gi] {
				rq.PatchedHosts[name] = stack
			}
			gi++
		}
	}
	return rq
}

// FoldRollout appends the rollout structure key of spec at per-tier
// patched counts (aligned with spec.Tiers; nil patches nothing) to key,
// and the class multiplicities in quotient order to counts. The results
// equal SpecRolloutQuotient's Structure and Counts
// (TestFoldMatchesRolloutQuotient), but no quotient is built: with
// buffers that have room, a memo probe allocates nothing. The spec
// must be valid and every patched count in range.
func FoldRollout(key []byte, counts []int, spec DesignSpec, patched []int) ([]byte, []int) {
	start := len(key)
	foldClasses(spec, patched, func(g TierSpec, total, p int) {
		for _, n := range [2]int{total - p, p} { // unpatched, then patched
			if n == 0 {
				continue
			}
			if len(key) > start {
				key = append(key, ';')
			}
			key = append(g.appendLabel(key), ":1"...)
			counts = append(counts, n)
		}
	})
	key = append(key, '|')
	foldClasses(spec, patched, func(_ TierSpec, total, p int) {
		if p < total {
			key = append(key, 'u')
		}
		if p > 0 {
			key = append(key, 'p')
		}
	})
	return key, counts
}

// foldClasses calls fn once per (logical tier, stack) class of spec, in
// quotient order, with the class's first group and its replica and
// patched totals (patched nil counts none). It scans the logical order
// instead of indexing roles and stacks in maps: specs have a handful of
// tiers.
func foldClasses(spec DesignSpec, patched []int, fn func(first TierSpec, total, patched int)) {
	var buf [16]int
	order := spec.AppendLogicalOrder(buf[:0])
	for x, i := range order {
		g := spec.Tiers[i]
		if slices.ContainsFunc(order[:x], func(k int) bool { return spec.Tiers[k].sameClass(g) }) {
			continue // folded at the class's first group
		}
		total, p := 0, 0
		for _, k := range order[x:] {
			if spec.Tiers[k].sameClass(g) {
				total += spec.Tiers[k].Replicas
				if patched != nil {
					p += patched[k]
				}
			}
		}
		fn(g, total, p)
	}
}

// sameClass reports whether two groups fall into one quotient class:
// same logical tier (role) and same stack.
func (t TierSpec) sameClass(o TierSpec) bool {
	return t.Role == o.Role && t.Stack() == o.Stack()
}
