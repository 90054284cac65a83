package harm

import (
	"errors"
	"reflect"
	"testing"
)

// paperGraph builds the example network's upper layer before patch:
// attacker -> dns1 and web{1,2}; dns1 -> web{1,2}; web -> app{1,2};
// app -> db1. Hosts named in without are left out with their edges.
func paperGraph(t *testing.T, without ...string) *graph {
	t.Helper()
	skip := make(map[string]bool, len(without))
	for _, n := range without {
		skip[n] = true
	}
	g := newGraph()
	for _, n := range []string{"attacker", "dns1", "web1", "web2", "app1", "app2", "db1"} {
		if skip[n] {
			continue
		}
		if err := g.addNode(n); err != nil {
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
		if skip[e[0]] || skip[e[1]] {
			continue
		}
		if err := g.addEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddNodeAndEdgeValidation(t *testing.T) {
	g := newGraph()
	if err := g.addNode(""); err == nil {
		t.Error("empty node name should fail")
	}
	if err := g.addNode("a"); err != nil {
		t.Fatal(err)
	}
	if err := g.addNode("a"); err != nil {
		t.Error("re-adding a node is a no-op, not an error")
	}
	if err := g.addEdge("a", "missing"); err == nil {
		t.Error("edge to unknown node should fail")
	}
	if err := g.addEdge("missing", "a"); err == nil {
		t.Error("edge from unknown node should fail")
	}
	if err := g.addEdge("a", "a"); err == nil {
		t.Error("self edge should fail")
	}
}

func TestPaperPathCount(t *testing.T) {
	// Paper Table II: 8 attack paths before patch.
	g := paperGraph(t)
	paths, err := g.allPaths("attacker", []string{"db1"}, allPathsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 8 {
		t.Fatalf("paths = %d, want 8", len(paths))
	}
	// Paper Table II: 3 entry points before patch (dns1, web1, web2).
	eps := entryPoints(paths)
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
	g := paperGraph(t, "dns1")
	paths, err := g.allPaths("attacker", []string{"db1"}, allPathsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("paths after removal = %d, want 4", len(paths))
	}
	if eps := entryPoints(paths); len(eps) != 2 {
		t.Fatalf("entry points after removal = %v, want 2", eps)
	}
}

func TestAllPathsAreSimpleAndDeterministic(t *testing.T) {
	g := paperGraph(t)
	paths, err := g.allPaths("attacker", []string{"db1"}, allPathsOptions{})
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
	again, err := g.allPaths("attacker", []string{"db1"}, allPathsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range paths {
		if !reflect.DeepEqual(paths[i], again[i]) {
			t.Fatal("AllPaths must be deterministic")
		}
	}
}

func TestAllPathsStopAtTarget(t *testing.T) {
	// target in the middle of a chain: paths must not continue past it.
	g := newGraph()
	for _, n := range []string{"a", "t", "c"} {
		if err := g.addNode(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.addEdge("a", "t"); err != nil {
		t.Fatal(err)
	}
	if err := g.addEdge("t", "c"); err != nil {
		t.Fatal(err)
	}
	paths, err := g.allPaths("a", []string{"t"}, allPathsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 2 {
		t.Fatalf("paths = %v, want single a->t", paths)
	}
}

func TestAllPathsSourceIsTarget(t *testing.T) {
	g := paperGraph(t)
	paths, err := g.allPaths("db1", []string{"db1"}, allPathsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || len(paths[0]) != 1 {
		t.Fatalf("paths = %v, want the trivial path", paths)
	}
}

func TestAllPathsUnknownNodes(t *testing.T) {
	g := paperGraph(t)
	if _, err := g.allPaths("ghost", []string{"db1"}, allPathsOptions{}); err == nil {
		t.Error("unknown source should fail")
	}
	if _, err := g.allPaths("attacker", []string{"ghost"}, allPathsOptions{}); err == nil {
		t.Error("unknown target should fail")
	}
}

func TestAllPathsCap(t *testing.T) {
	g := paperGraph(t)
	_, err := g.allPaths("attacker", []string{"db1"}, allPathsOptions{MaxPaths: 3})
	if !errors.Is(err, errTooManyPaths) {
		t.Errorf("expected errTooManyPaths, got %v", err)
	}
}

func TestAllPathsWithCycle(t *testing.T) {
	g := newGraph()
	for _, n := range []string{"a", "b", "c", "t"} {
		if err := g.addNode(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "b"}, {"c", "t"}} {
		if err := g.addEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := g.allPaths("a", []string{"t"}, allPathsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("paths = %v, want 1 (cycle must not loop)", paths)
	}
}

func TestEntryPointsShortPaths(t *testing.T) {
	if got := entryPoints([]Path{{"only"}}); len(got) != 0 {
		t.Errorf("EntryPoints of trivial path = %v, want empty", got)
	}
}

func TestAdjacencySnapshot(t *testing.T) {
	g := newGraph()
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := g.addNode(n); err != nil {
			t.Fatal(err)
		}
	}
	// Out-of-order and duplicate inserts: successors stays sorted and
	// deduplicated without per-call rebuilding.
	for _, e := range [][2]string{{"a", "d"}, {"a", "b"}, {"a", "c"}, {"a", "b"}} {
		if err := g.addEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"b", "c", "d"}
	if got := g.successors("a"); !reflect.DeepEqual(got, want) {
		t.Errorf("successors(a) = %v, want %v", got, want)
	}
	if got := g.successors("c"); len(got) != 0 {
		t.Errorf("successors(c) = %v, want none", got)
	}
}
