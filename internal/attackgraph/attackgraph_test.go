package attackgraph

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// paperGraph builds the example network's upper layer before patch:
// attacker -> dns1 and web{1,2}; dns1 -> web{1,2}; web -> app{1,2};
// app -> db1.
func paperGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for _, n := range []string{"attacker", "dns1", "web1", "web2", "app1", "app2", "db1"} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	edges := [][2]string{
		{"attacker", "dns1"}, {"attacker", "web1"}, {"attacker", "web2"},
		{"dns1", "web1"}, {"dns1", "web2"},
		{"web1", "app1"}, {"web1", "app2"}, {"web2", "app1"}, {"web2", "app2"},
		{"app1", "db1"}, {"app2", "db1"},
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddNodeAndEdgeValidation(t *testing.T) {
	g := New()
	if err := g.AddNode(""); err == nil {
		t.Error("empty node name should fail")
	}
	if err := g.AddNode("a"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("a"); err != nil {
		t.Error("re-adding a node is a no-op, not an error")
	}
	if err := g.AddEdge("a", "missing"); err == nil {
		t.Error("edge to unknown node should fail")
	}
	if err := g.AddEdge("missing", "a"); err == nil {
		t.Error("edge from unknown node should fail")
	}
	if err := g.AddEdge("a", "a"); err == nil {
		t.Error("self edge should fail")
	}
}

func TestPaperPathCount(t *testing.T) {
	// Paper Table II: 8 attack paths before patch.
	g := paperGraph(t)
	paths, err := g.AllPaths("attacker", []string{"db1"}, AllPathsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 8 {
		t.Fatalf("paths = %d, want 8", len(paths))
	}
	// Paper Table II: 3 entry points before patch (dns1, web1, web2).
	eps := EntryPoints(paths)
	want := []string{"dns1", "web1", "web2"}
	if len(eps) != len(want) {
		t.Fatalf("entry points = %v, want %v", eps, want)
	}
	for i := range want {
		if eps[i] != want[i] {
			t.Fatalf("entry points = %v, want %v", eps, want)
		}
	}
}

func TestPathsAfterRemovingDNS(t *testing.T) {
	// Paper Table II: after patch the DNS server leaves the graph;
	// 4 paths and 2 entry points remain.
	g := paperGraph(t)
	g.RemoveNode("dns1")
	paths, err := g.AllPaths("attacker", []string{"db1"}, AllPathsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("paths after removal = %d, want 4", len(paths))
	}
	if eps := EntryPoints(paths); len(eps) != 2 {
		t.Fatalf("entry points after removal = %v, want 2", eps)
	}
}

func TestAllPathsAreSimpleAndDeterministic(t *testing.T) {
	g := paperGraph(t)
	paths, err := g.AllPaths("attacker", []string{"db1"}, AllPathsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		seen := make(map[string]bool)
		for _, n := range p {
			if seen[n] {
				t.Fatalf("path %v revisits %q", p, n)
			}
			seen[n] = true
		}
		if p[0] != "attacker" || p[len(p)-1] != "db1" {
			t.Fatalf("path %v has wrong endpoints", p)
		}
	}
	again, err := g.AllPaths("attacker", []string{"db1"}, AllPathsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range paths {
		if paths[i].String() != again[i].String() {
			t.Fatal("AllPaths must be deterministic")
		}
	}
}

func TestAllPathsStopAtTarget(t *testing.T) {
	// target in the middle of a chain: paths must not continue past it.
	g := New()
	for _, n := range []string{"a", "t", "c"} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("a", "t"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("t", "c"); err != nil {
		t.Fatal(err)
	}
	paths, err := g.AllPaths("a", []string{"t"}, AllPathsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 2 {
		t.Fatalf("paths = %v, want single a->t", paths)
	}
}

func TestAllPathsSourceIsTarget(t *testing.T) {
	g := paperGraph(t)
	paths, err := g.AllPaths("db1", []string{"db1"}, AllPathsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 1 {
		t.Fatalf("paths = %v, want the trivial path", paths)
	}
}

func TestAllPathsUnknownNodes(t *testing.T) {
	g := paperGraph(t)
	if _, err := g.AllPaths("ghost", []string{"db1"}, AllPathsOptions{}); err == nil {
		t.Error("unknown source should fail")
	}
	if _, err := g.AllPaths("attacker", []string{"ghost"}, AllPathsOptions{}); err == nil {
		t.Error("unknown target should fail")
	}
}

func TestAllPathsCap(t *testing.T) {
	g := paperGraph(t)
	_, err := g.AllPaths("attacker", []string{"db1"}, AllPathsOptions{MaxPaths: 3})
	if !errors.Is(err, ErrTooManyPaths) {
		t.Errorf("expected ErrTooManyPaths, got %v", err)
	}
}

func TestAllPathsWithCycle(t *testing.T) {
	g := New()
	for _, n := range []string{"a", "b", "c", "t"} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "b"}, {"c", "t"}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := g.AllPaths("a", []string{"t"}, AllPathsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths = %v, want 1 (cycle must not loop)", paths)
	}
}

func TestRemoveNode(t *testing.T) {
	g := paperGraph(t)
	before := g.NumEdges()
	g.RemoveNode("web1")
	if g.HasNode("web1") {
		t.Error("node should be gone")
	}
	if g.HasEdge("attacker", "web1") || g.HasEdge("web1", "app1") {
		t.Error("edges touching removed node should be gone")
	}
	// web1 had 2 in-edges (attacker, dns1) and 2 out-edges (app1, app2).
	if got := g.NumEdges(); got != before-4 {
		t.Errorf("NumEdges = %d, want %d", got, before-4)
	}
	g.RemoveNode("ghost") // no-op
}

func TestClone(t *testing.T) {
	g := paperGraph(t)
	c := g.Clone()
	c.RemoveNode("dns1")
	if !g.HasNode("dns1") {
		t.Error("Clone must be independent")
	}
	if len(c.Nodes()) != len(g.Nodes())-1 {
		t.Error("clone node count wrong")
	}
}

func TestNodesOnPaths(t *testing.T) {
	g := paperGraph(t)
	paths, err := g.AllPaths("attacker", []string{"db1"}, AllPathsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nodes := NodesOnPaths(paths)
	if len(nodes) != 6 {
		t.Errorf("NodesOnPaths = %v, want all 6 hosts", nodes)
	}
	for _, n := range nodes {
		if n == "attacker" {
			t.Error("source must not be included")
		}
	}
}

func TestPathHelpers(t *testing.T) {
	p := Path{"a", "b", "c"}
	if p.String() != "a -> b -> c" {
		t.Errorf("String = %q", p.String())
	}
	if !p.Contains("b") || p.Contains("z") {
		t.Error("Contains misbehaves")
	}
}

func TestEntryPointsShortPaths(t *testing.T) {
	if got := EntryPoints([]Path{{"only"}}); len(got) != 0 {
		t.Errorf("EntryPoints of trivial path = %v, want empty", got)
	}
}

func TestDOT(t *testing.T) {
	g := paperGraph(t)
	dot := g.DOT()
	for _, want := range []string{"digraph", "attacker", "db1", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	if dot != g.DOT() {
		t.Error("DOT must be deterministic")
	}
}

func TestAdjacencySnapshot(t *testing.T) {
	g := New()
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := g.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	// Out-of-order and duplicate inserts: Successors stays sorted and
	// deduplicated without per-call rebuilding.
	for _, e := range [][2]string{{"a", "d"}, {"a", "b"}, {"a", "c"}, {"a", "b"}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"b", "c", "d"}
	if got := g.Successors("a"); !reflect.DeepEqual(got, want) {
		t.Errorf("Successors(a) = %v, want %v", got, want)
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	if !g.HasEdge("a", "c") || g.HasEdge("c", "a") {
		t.Error("HasEdge misbehaves on the sorted snapshot")
	}

	// Clone copies the snapshot; removals on the clone leave the
	// original intact, and vice versa.
	c := g.Clone()
	c.RemoveNode("c")
	if c.HasNode("c") || c.HasEdge("a", "c") {
		t.Error("RemoveNode left traces in the clone")
	}
	if got := c.Successors("a"); !reflect.DeepEqual(got, []string{"b", "d"}) {
		t.Errorf("clone Successors(a) = %v, want [b d]", got)
	}
	if got := g.Successors("a"); !reflect.DeepEqual(got, want) {
		t.Errorf("original Successors(a) = %v after clone removal, want %v", got, want)
	}
}
