// Package attackgraph implements the directed reachability graph that
// forms the upper layer of the paper's HARM. Nodes are host instances plus
// the attacker's location; an edge means the attacker, having compromised
// the source, can attempt the destination. The central operation is
// enumeration of all simple attack paths from the attacker to the target
// hosts, from which the paper's path-based metrics (number of attack
// paths, number of entry points, path impact/probability) are computed.
package attackgraph

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ErrTooManyPaths reports that simple-path enumeration exceeded the
// configured cap, which protects against combinatorial blow-up on dense
// graphs.
var ErrTooManyPaths = errors.New("attackgraph: too many attack paths")

// Graph is a directed graph over string-named nodes. Adjacency is kept as
// sorted successor slices maintained on insertion, so traversal
// (Successors, AllPaths) never rebuilds or re-sorts per call and the graph
// is safe for concurrent reads once construction is done.
type Graph struct {
	nodes map[string]bool
	adj   map[string][]string // sorted successor names per node
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[string]bool),
		adj:   make(map[string][]string),
	}
}

// AddNode inserts a node; adding an existing node is a no-op.
func (g *Graph) AddNode(name string) error {
	if name == "" {
		return fmt.Errorf("attackgraph: empty node name")
	}
	g.nodes[name] = true
	return nil
}

// AddEdge inserts a directed edge; both endpoints must exist. Inserting an
// existing edge is a no-op.
func (g *Graph) AddEdge(from, to string) error {
	if !g.nodes[from] {
		return fmt.Errorf("attackgraph: unknown node %q", from)
	}
	if !g.nodes[to] {
		return fmt.Errorf("attackgraph: unknown node %q", to)
	}
	if from == to {
		return fmt.Errorf("attackgraph: self edge on %q", from)
	}
	succ := g.adj[from]
	i := sort.SearchStrings(succ, to)
	if i < len(succ) && succ[i] == to {
		return nil
	}
	succ = append(succ, "")
	copy(succ[i+1:], succ[i:])
	succ[i] = to
	g.adj[from] = succ
	return nil
}

// HasNode reports whether the node exists.
func (g *Graph) HasNode(name string) bool { return g.nodes[name] }

// HasEdge reports whether the directed edge exists.
func (g *Graph) HasEdge(from, to string) bool {
	succ := g.adj[from]
	i := sort.SearchStrings(succ, to)
	return i < len(succ) && succ[i] == to
}

// RemoveNode deletes a node and every edge touching it. The HARM applies
// it when patching leaves a host with an empty attack tree.
func (g *Graph) RemoveNode(name string) {
	if !g.nodes[name] {
		return
	}
	delete(g.nodes, name)
	delete(g.adj, name)
	for from, succ := range g.adj {
		i := sort.SearchStrings(succ, name)
		if i < len(succ) && succ[i] == name {
			g.adj[from] = append(succ[:i], succ[i+1:]...)
		}
	}
}

// Nodes returns all node names sorted.
func (g *Graph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Successors returns the direct successors of a node, sorted. The slice is
// the graph's own adjacency snapshot — callers must not modify it.
func (g *Graph) Successors(name string) []string {
	return g.adj[name]
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, succ := range g.adj {
		n += len(succ)
	}
	return n
}

// Clone returns a deep copy of the graph. The adjacency snapshot is copied
// wholesale instead of replayed edge by edge.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes: make(map[string]bool, len(g.nodes)),
		adj:   make(map[string][]string, len(g.adj)),
	}
	for n := range g.nodes {
		c.nodes[n] = true
	}
	for from, succ := range g.adj {
		c.adj[from] = append([]string(nil), succ...)
	}
	return c
}

// Path is a simple path through the graph, source first.
type Path []string

// String renders the path as "a -> b -> c".
func (p Path) String() string { return strings.Join(p, " -> ") }

// Contains reports whether the path visits the given node.
func (p Path) Contains(name string) bool {
	for _, n := range p {
		if n == name {
			return true
		}
	}
	return false
}

// AllPathsOptions configures path enumeration. The zero value applies the
// documented defaults.
type AllPathsOptions struct {
	// MaxPaths caps the number of enumerated paths; default 100000.
	MaxPaths int
}

func (o AllPathsOptions) withDefaults() AllPathsOptions {
	if o.MaxPaths <= 0 {
		o.MaxPaths = 100000
	}
	return o
}

// AllPaths enumerates every simple path from src to any node in targets,
// in deterministic (lexicographically ordered DFS) order. Paths stop at
// the first target they reach: the attacker's goal is reaching a target,
// so continuing past one would double-count.
func (g *Graph) AllPaths(src string, targets []string, opts AllPathsOptions) ([]Path, error) {
	if !g.nodes[src] {
		return nil, fmt.Errorf("attackgraph: unknown source %q", src)
	}
	targetSet := make(map[string]bool, len(targets))
	for _, t := range targets {
		if !g.nodes[t] {
			return nil, fmt.Errorf("attackgraph: unknown target %q", t)
		}
		targetSet[t] = true
	}
	opts = opts.withDefaults()

	var paths []Path
	onPath := map[string]bool{src: true}
	cur := Path{src}
	var dfs func(node string) error
	dfs = func(node string) error {
		for _, next := range g.adj[node] {
			if onPath[next] {
				continue
			}
			cur = append(cur, next)
			if targetSet[next] {
				if len(paths) >= opts.MaxPaths {
					return fmt.Errorf("%w (cap %d)", ErrTooManyPaths, opts.MaxPaths)
				}
				p := make(Path, len(cur))
				copy(p, cur)
				paths = append(paths, p)
			} else {
				onPath[next] = true
				if err := dfs(next); err != nil {
					return err
				}
				delete(onPath, next)
			}
			cur = cur[:len(cur)-1]
		}
		return nil
	}
	if targetSet[src] {
		return []Path{{src}}, nil
	}
	if err := dfs(src); err != nil {
		return nil, err
	}
	return paths, nil
}

// EntryPoints returns the distinct first hops of the given paths (the
// nodes the attacker can strike directly), sorted. Paths of length < 2
// contribute nothing.
func EntryPoints(paths []Path) []string {
	set := make(map[string]bool)
	for _, p := range paths {
		if len(p) >= 2 {
			set[p[1]] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NodesOnPaths returns the union of non-source nodes visited by the paths,
// sorted.
func NodesOnPaths(paths []Path) []string {
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

// DOT renders the graph in Graphviz dot format; output is deterministic.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph attackgraph {\n  rankdir=LR;\n")
	for _, n := range g.Nodes() {
		fmt.Fprintf(&b, "  %q;\n", n)
	}
	for _, from := range g.Nodes() {
		for _, to := range g.Successors(from) {
			fmt.Fprintf(&b, "  %q -> %q;\n", from, to)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
