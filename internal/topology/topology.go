// Package topology models the network input of the paper's framework: the
// hosts of an enterprise network, the subnets they sit in, and the
// reachability between them as constrained by firewalls. The security
// model generator consumes a Topology to build the upper layer of the
// HARM; an administrator would produce the same information from network
// scans and firewall configuration.
package topology

import (
	"fmt"
	"sort"
	"strings"
)

// Kind distinguishes the attacker's location node from protected hosts.
type Kind int

// Node kinds.
const (
	// KindAttacker marks the attacker's starting location (outside the
	// network in the paper's attacker model).
	KindAttacker Kind = iota + 1
	// KindHost marks a server.
	KindHost
)

// Node is a host or the attacker location.
type Node struct {
	// Name uniquely identifies the node, e.g. "web1".
	Name string
	// Kind is attacker or host.
	Kind Kind
	// Subnet is the network segment, e.g. "dmz" or "intranet". Firewall
	// rules are expressed between subnets.
	Subnet string
	// Role is the server type the node instantiates, e.g. "web"; the HARM
	// generator uses it to attach the right attack tree.
	Role string
}

// Topology is a set of nodes plus directed reachability edges.
type Topology struct {
	nodes map[string]Node
	adj   map[string]map[string]bool
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{
		nodes: make(map[string]Node),
		adj:   make(map[string]map[string]bool),
	}
}

// AddNode inserts a node, rejecting duplicates and empty names.
func (t *Topology) AddNode(n Node) error {
	if n.Name == "" {
		return fmt.Errorf("topology: node with empty name")
	}
	if n.Kind != KindAttacker && n.Kind != KindHost {
		return fmt.Errorf("topology: node %q has invalid kind %d", n.Name, n.Kind)
	}
	if _, dup := t.nodes[n.Name]; dup {
		return fmt.Errorf("topology: duplicate node %q", n.Name)
	}
	t.nodes[n.Name] = n
	t.adj[n.Name] = make(map[string]bool)
	return nil
}

// MustAddNode is AddNode for statically known topologies; panics on error.
func (t *Topology) MustAddNode(n Node) {
	if err := t.AddNode(n); err != nil {
		panic(err)
	}
}

// Connect adds a directed reachability edge from one node to another.
func (t *Topology) Connect(from, to string) error {
	if _, ok := t.nodes[from]; !ok {
		return fmt.Errorf("topology: unknown node %q", from)
	}
	if _, ok := t.nodes[to]; !ok {
		return fmt.Errorf("topology: unknown node %q", to)
	}
	if from == to {
		return fmt.Errorf("topology: self edge on %q", from)
	}
	t.adj[from][to] = true
	return nil
}

// MustConnect is Connect for statically known topologies; panics on error.
func (t *Topology) MustConnect(from, to string) {
	if err := t.Connect(from, to); err != nil {
		panic(err)
	}
}

// Node returns the named node.
func (t *Topology) Node(name string) (Node, bool) {
	n, ok := t.nodes[name]
	return n, ok
}

// Nodes returns all nodes sorted by name.
func (t *Topology) Nodes() []Node {
	out := make([]Node, 0, len(t.nodes))
	for _, n := range t.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Hosts returns the non-attacker nodes sorted by name.
func (t *Topology) Hosts() []Node {
	var out []Node
	for _, n := range t.nodes {
		if n.Kind == KindHost {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Attackers returns the attacker nodes sorted by name.
func (t *Topology) Attackers() []Node {
	var out []Node
	for _, n := range t.nodes {
		if n.Kind == KindAttacker {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Successors returns the names directly reachable from the given node,
// sorted.
func (t *Topology) Successors(name string) []string {
	var out []string
	for to := range t.adj[name] {
		out = append(out, to)
	}
	sort.Strings(out)
	return out
}

// Validate checks that the topology has at least one attacker and one host
// and that every host carries a role (the HARM generator requires one).
func (t *Topology) Validate() error {
	if len(t.Attackers()) == 0 {
		return fmt.Errorf("topology: no attacker node")
	}
	hosts := t.Hosts()
	if len(hosts) == 0 {
		return fmt.Errorf("topology: no host nodes")
	}
	for _, h := range hosts {
		if h.Role == "" {
			return fmt.Errorf("topology: host %q has no role", h.Name)
		}
	}
	return nil
}

// DOT renders the topology in Graphviz dot format with subnets as
// clusters; output is deterministic.
func (t *Topology) DOT() string {
	var b strings.Builder
	b.WriteString("digraph topology {\n  rankdir=LR;\n")

	subnets := make(map[string][]Node)
	for _, n := range t.Nodes() {
		subnets[n.Subnet] = append(subnets[n.Subnet], n)
	}
	var names []string
	for s := range subnets {
		names = append(names, s)
	}
	sort.Strings(names)
	for i, s := range names {
		if s != "" {
			fmt.Fprintf(&b, "  subgraph cluster_%d {\n    label=%q;\n", i, s)
		}
		for _, n := range subnets[s] {
			shape := "box"
			if n.Kind == KindAttacker {
				shape = "diamond"
			}
			indent := "  "
			if s != "" {
				indent = "    "
			}
			fmt.Fprintf(&b, "%s%q [shape=%s];\n", indent, n.Name, shape)
		}
		if s != "" {
			b.WriteString("  }\n")
		}
	}
	for _, n := range t.Nodes() {
		for _, to := range t.Successors(n.Name) {
			fmt.Fprintf(&b, "  %q -> %q;\n", n.Name, to)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
