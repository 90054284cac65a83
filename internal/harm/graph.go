package harm

import (
	"errors"
	"fmt"
	"sort"
)

// The upper layer of the HARM is a directed reachability graph. Nodes are
// host instances plus the attacker's location; an edge means the
// attacker, having compromised the source, can attempt the destination.
// The central operation is enumeration of all simple attack paths from
// the attacker to the target hosts, from which the paper's path-based
// metrics (number of attack paths, number of entry points, path
// impact/probability) are computed.

// errTooManyPaths reports that simple-path enumeration exceeded the
// configured cap, which protects against combinatorial blow-up on dense
// graphs.
var errTooManyPaths = errors.New("attackgraph: too many attack paths")

// graph is a directed graph over string-named nodes. Adjacency is kept as
// sorted successor slices maintained on insertion, so traversal
// (successors, allPaths) never rebuilds or re-sorts per call and the graph
// is safe for concurrent reads once construction is done.
type graph struct {
	nodes map[string]bool
	adj   map[string][]string // sorted successor names per node
}

// newGraph returns an empty graph.
func newGraph() *graph {
	return &graph{
		nodes: make(map[string]bool),
		adj:   make(map[string][]string),
	}
}

// addNode inserts a node; adding an existing node is a no-op.
func (g *graph) addNode(name string) error {
	if name == "" {
		return fmt.Errorf("attackgraph: empty node name")
	}
	g.nodes[name] = true
	return nil
}

// addEdge inserts a directed edge; both endpoints must exist. Inserting an
// existing edge is a no-op.
func (g *graph) addEdge(from, to string) error {
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

// hasNode reports whether the node exists.
func (g *graph) hasNode(name string) bool { return g.nodes[name] }

// sortedNodes returns all node names sorted.
func (g *graph) sortedNodes() []string {
	out := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// successors returns the direct successors of a node, sorted. The slice is
// the graph's own adjacency snapshot — callers must not modify it.
func (g *graph) successors(name string) []string {
	return g.adj[name]
}

// Path is a simple path through the graph, source first.
type Path []string

// allPathsOptions configures path enumeration. The zero value applies the
// documented defaults.
type allPathsOptions struct {
	// MaxPaths caps the number of enumerated paths; default 100000.
	MaxPaths int
}

func (o allPathsOptions) withDefaults() allPathsOptions {
	if o.MaxPaths <= 0 {
		o.MaxPaths = 100000
	}
	return o
}

// allPaths enumerates every simple path from src to any node in targets,
// in deterministic (lexicographically ordered DFS) order. Paths stop at
// the first target they reach: the attacker's goal is reaching a target,
// so continuing past one would double-count.
func (g *graph) allPaths(src string, targets []string, opts allPathsOptions) ([]Path, error) {
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
					return fmt.Errorf("%w (cap %d)", errTooManyPaths, opts.MaxPaths)
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

// entryPoints returns the distinct first hops of the given paths (the
// nodes the attacker can strike directly), sorted. Paths of length < 2
// contribute nothing.
func entryPoints(paths []Path) []string {
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
