package harm

import (
	"fmt"
	"strings"

	"redpatch/internal/attacktree"
)

// DOT renders the two-layered HARM in Graphviz dot format: the upper
// layer's reachability edges with the attacker as a diamond, and each
// host labelled with its lower-layer attack tree (the s-expression form)
// plus its node-level impact and success probability. Hosts that fell
// out of the attack graph (empty trees after patching) appear greyed
// out. The output is deterministic.
func (h *HARM) DOT() string {
	var b strings.Builder
	b.WriteString("digraph harm {\n  rankdir=LR;\n  node [shape=box];\n")
	fmt.Fprintf(&b, "  %q [shape=diamond];\n", h.attacker)

	targets := make(map[string]bool, len(h.targets))
	for _, t := range h.targets {
		targets[t] = true
	}
	for _, host := range h.Hosts() {
		tr := h.lower[host]
		attrs := []string{
			fmt.Sprintf("label=\"%s\\n%s\\nimpact %.1f, prob %.2f\"",
				host, escapeDOT(tr.String()), tr.Impact(), tr.Probability(attacktree.ORMax)),
		}
		if tr.Empty() {
			attrs = append(attrs, "style=dashed", "color=gray")
		}
		if targets[host] {
			attrs = append(attrs, "peripheries=2")
		}
		fmt.Fprintf(&b, "  %q [%s];\n", host, strings.Join(attrs, ", "))
	}
	for _, from := range h.upper.sortedNodes() {
		for _, to := range h.upper.successors(from) {
			fmt.Fprintf(&b, "  %q -> %q;\n", from, to)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func escapeDOT(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
