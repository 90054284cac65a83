package harm

import "redpatch/internal/attacktree"

// BuildFactoredRollout constructs the mixed-version factored model of a
// rollout quotient (paperdata.SpecRolloutQuotient): the class hosts
// named in patched run the post-patch version of their stack — their
// attack tree is the stack template pruned by keep, installed as a
// per-instance override — while every other class keeps its unpatched
// template. patched maps class host names to the stack whose template
// to prune; keep is the patch transformation predicate of HARM.Patched.
//
// With no patched classes this is exactly BuildFactored, and with every
// class patched it matches the factored model of HARM.Patched(keep) — the
// pruned per-instance trees are value-identical to the pruned role
// templates, so both degenerate rollout endpoints reproduce the atomic
// models' metrics bit for bit.
func BuildFactoredRollout(in BuildInput, patched map[string]string, keep func(role string, leaf *attacktree.Leaf) bool) (*FactoredHARM, error) {
	if len(patched) == 0 {
		return BuildFactored(in)
	}
	inst := make(map[string]*attacktree.Tree, len(patched)+len(in.InstanceTrees))
	for host, tr := range in.InstanceTrees {
		inst[host] = tr
	}
	for host, stack := range patched {
		tmpl := inst[host]
		if tmpl == nil {
			tmpl = in.Trees[stack]
		}
		if tmpl == nil {
			continue // no attack tree: patching changes nothing
		}
		stack := stack
		inst[host] = tmpl.Prune(func(l *attacktree.Leaf) bool { return keep(stack, l) })
	}
	in.InstanceTrees = inst
	return BuildFactored(in)
}
