// Package attacktree implements the AND/OR attack trees that form the
// lower layer of the paper's HARM. A tree describes how combinations of
// vulnerability exploits compromise a single host: OR children are
// alternative exploits, AND children must all succeed together (the paper
// pairs a remote foothold with a local privilege escalation this way).
//
// Metric evaluation follows the HARM literature the paper cites:
// attack impact uses max over OR and sum over AND; attack success
// probability uses product over AND and, selectably, max or noisy-OR over
// OR.
package attacktree

import (
	"fmt"
	"strings"
)

// Node is a tree node: either a *Leaf or a *Gate.
type Node interface {
	isNode()
	clone() Node
}

// Leaf references a single exploitable vulnerability with its attack
// impact and attack success probability (derived from CVSS in the paper).
type Leaf struct {
	// Ref identifies the vulnerability, e.g. "CVE-2016-6662".
	Ref string
	// Impact is the attack impact of a successful exploit.
	Impact float64
	// Prob is the attack success probability in [0, 1].
	Prob float64
}

func (*Leaf) isNode() {}

func (l *Leaf) clone() Node {
	c := *l
	return &c
}

// Op is a gate operator.
type Op int

// Gate operators.
const (
	// OR succeeds when any child succeeds.
	OR Op = iota + 1
	// AND succeeds only when all children succeed.
	AND
)

// String returns the operator label.
func (o Op) String() string {
	switch o {
	case OR:
		return "OR"
	case AND:
		return "AND"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Gate combines child nodes under an operator.
type Gate struct {
	Op       Op
	Children []Node
}

func (*Gate) isNode() {}

func (g *Gate) clone() Node {
	c := &Gate{Op: g.Op, Children: make([]Node, len(g.Children))}
	for i, ch := range g.Children {
		c.Children[i] = ch.clone()
	}
	return c
}

// NewLeaf constructs a leaf node.
func NewLeaf(ref string, impact, prob float64) *Leaf {
	return &Leaf{Ref: ref, Impact: impact, Prob: prob}
}

// NewOR constructs an OR gate over the given children.
func NewOR(children ...Node) *Gate { return &Gate{Op: OR, Children: children} }

// NewAND constructs an AND gate over the given children.
func NewAND(children ...Node) *Gate { return &Gate{Op: AND, Children: children} }

// ORRule selects how OR gates combine child probabilities.
type ORRule int

// OR combination rules.
const (
	// ORMax takes the maximum child probability: the attacker picks the
	// single most promising alternative. This is the rule in the HARM
	// papers the authors cite.
	ORMax ORRule = iota + 1
	// ORNoisy combines children as 1 - prod(1 - p): alternatives count as
	// independent chances.
	ORNoisy
)

// Tree is an attack tree for one host. A Tree with a nil root is "empty":
// the host has no exploitable vulnerability combination, which after
// patching removes it from the attack graph.
type Tree struct {
	root Node
}

// New builds a tree with the given root; a nil root yields an empty tree.
func New(root Node) *Tree { return &Tree{root: root} }

// Empty reports whether the tree offers the attacker nothing.
func (t *Tree) Empty() bool { return t == nil || t.root == nil }

// Clone returns a deep copy.
func (t *Tree) Clone() *Tree {
	if t.Empty() {
		return &Tree{}
	}
	return &Tree{root: t.root.clone()}
}

// Validate checks structural sanity: gates have at least one child, leaf
// probabilities lie in [0, 1], and impacts are non-negative.
func (t *Tree) Validate() error {
	if t.Empty() {
		return nil
	}
	return validate(t.root)
}

func validate(n Node) error {
	switch v := n.(type) {
	case *Leaf:
		if v.Ref == "" {
			return fmt.Errorf("attacktree: leaf with empty ref")
		}
		if v.Prob < 0 || v.Prob > 1 {
			return fmt.Errorf("attacktree: leaf %q probability %v outside [0,1]", v.Ref, v.Prob)
		}
		if v.Impact < 0 {
			return fmt.Errorf("attacktree: leaf %q negative impact %v", v.Ref, v.Impact)
		}
		return nil
	case *Gate:
		if v.Op != OR && v.Op != AND {
			return fmt.Errorf("attacktree: invalid gate op %d", v.Op)
		}
		if len(v.Children) == 0 {
			return fmt.Errorf("attacktree: %s gate with no children", v.Op)
		}
		for _, ch := range v.Children {
			if err := validate(ch); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("attacktree: unknown node type %T", n)
	}
}

// Impact evaluates the attack impact of the tree: leaves contribute their
// impact, OR takes the maximum child, AND sums its children (paper
// §III-C). An empty tree has impact 0.
func (t *Tree) Impact() float64 {
	if t.Empty() {
		return 0
	}
	return impactOf(t.root)
}

func impactOf(n Node) float64 {
	switch v := n.(type) {
	case *Leaf:
		return v.Impact
	case *Gate:
		if v.Op == AND {
			var sum float64
			for _, ch := range v.Children {
				sum += impactOf(ch)
			}
			return sum
		}
		best := 0.0
		for _, ch := range v.Children {
			if i := impactOf(ch); i > best {
				best = i
			}
		}
		return best
	default:
		return 0
	}
}

// Probability evaluates the attack success probability of the tree: AND
// multiplies children, OR combines them per the rule. An empty tree has
// probability 0.
func (t *Tree) Probability(rule ORRule) float64 {
	if t.Empty() {
		return 0
	}
	return probOf(t.root, rule)
}

func probOf(n Node, rule ORRule) float64 {
	switch v := n.(type) {
	case *Leaf:
		return v.Prob
	case *Gate:
		if v.Op == AND {
			p := 1.0
			for _, ch := range v.Children {
				p *= probOf(ch, rule)
			}
			return p
		}
		if rule == ORNoisy {
			q := 1.0
			for _, ch := range v.Children {
				q *= 1 - probOf(ch, rule)
			}
			return 1 - q
		}
		best := 0.0
		for _, ch := range v.Children {
			if p := probOf(ch, rule); p > best {
				best = p
			}
		}
		return best
	default:
		return 0
	}
}

// LeafCount returns the number of leaves without materializing them —
// the alloc-free counterpart of len(Leaves()) for the NoEV hot path,
// where the metric is recomputed per host instance.
func (t *Tree) LeafCount() int {
	if t.Empty() {
		return 0
	}
	return leafCount(t.root)
}

func leafCount(n Node) int {
	switch v := n.(type) {
	case *Leaf:
		return 1
	case *Gate:
		total := 0
		for _, ch := range v.Children {
			total += leafCount(ch)
		}
		return total
	default:
		return 0
	}
}

// Metrics evaluates impact and success probability in one traversal —
// the combined form of Impact and Probability for evaluators that need
// both per host and want to walk the tree once.
func (t *Tree) Metrics(rule ORRule) (impact, prob float64) {
	if t.Empty() {
		return 0, 0
	}
	return metricsOf(t.root, rule)
}

func metricsOf(n Node, rule ORRule) (impact, prob float64) {
	switch v := n.(type) {
	case *Leaf:
		return v.Impact, v.Prob
	case *Gate:
		if v.Op == AND {
			prob = 1
			for _, ch := range v.Children {
				ci, cp := metricsOf(ch, rule)
				impact += ci
				prob *= cp
			}
			return impact, prob
		}
		if rule == ORNoisy {
			q := 1.0
			for _, ch := range v.Children {
				ci, cp := metricsOf(ch, rule)
				if ci > impact {
					impact = ci
				}
				q *= 1 - cp
			}
			return impact, 1 - q
		}
		for _, ch := range v.Children {
			ci, cp := metricsOf(ch, rule)
			if ci > impact {
				impact = ci
			}
			if cp > prob {
				prob = cp
			}
		}
		return impact, prob
	default:
		return 0, 0
	}
}

// Leaves returns the leaves of the tree in depth-first order.
func (t *Tree) Leaves() []*Leaf {
	if t.Empty() {
		return nil
	}
	var out []*Leaf
	var walk func(Node)
	walk = func(n Node) {
		switch v := n.(type) {
		case *Leaf:
			out = append(out, v)
		case *Gate:
			for _, ch := range v.Children {
				walk(ch)
			}
		}
	}
	walk(t.root)
	return out
}

// Prune returns a new tree containing only the leaves accepted by keep.
// AND gates lose their purpose when any child disappears (the combination
// is no longer executable), so they vanish entirely; OR gates drop removed
// children and vanish only when no child remains. This is exactly the
// transformation the paper applies when critical vulnerabilities are
// patched.
func (t *Tree) Prune(keep func(*Leaf) bool) *Tree {
	if t.Empty() {
		return &Tree{}
	}
	return &Tree{root: prune(t.root, keep)}
}

func prune(n Node, keep func(*Leaf) bool) Node {
	switch v := n.(type) {
	case *Leaf:
		if keep(v) {
			return v.clone()
		}
		return nil
	case *Gate:
		var kept []Node
		for _, ch := range v.Children {
			if p := prune(ch, keep); p != nil {
				kept = append(kept, p)
			}
		}
		if v.Op == AND {
			if len(kept) != len(v.Children) {
				return nil
			}
			return &Gate{Op: AND, Children: kept}
		}
		if len(kept) == 0 {
			return nil
		}
		return &Gate{Op: OR, Children: kept}
	default:
		return nil
	}
}

// String renders the tree as a compact s-expression, e.g.
// "OR(v1, AND(v4, v5))"; empty trees render as "∅".
func (t *Tree) String() string {
	if t.Empty() {
		return "∅"
	}
	var b strings.Builder
	render(&b, t.root)
	return b.String()
}

func render(b *strings.Builder, n Node) {
	switch v := n.(type) {
	case *Leaf:
		b.WriteString(v.Ref)
	case *Gate:
		b.WriteString(v.Op.String())
		b.WriteString("(")
		for i, ch := range v.Children {
			if i > 0 {
				b.WriteString(", ")
			}
			render(b, ch)
		}
		b.WriteString(")")
	}
}
