package topology

import (
	"strings"
	"testing"
)

func threeTier(t *testing.T) *Topology {
	t.Helper()
	top := New()
	top.MustAddNode(Node{Name: "attacker", Kind: KindAttacker, Subnet: "internet"})
	top.MustAddNode(Node{Name: "dns1", Kind: KindHost, Subnet: "dmz2", Role: "dns"})
	top.MustAddNode(Node{Name: "web1", Kind: KindHost, Subnet: "dmz1", Role: "web"})
	top.MustAddNode(Node{Name: "web2", Kind: KindHost, Subnet: "dmz1", Role: "web"})
	top.MustAddNode(Node{Name: "app1", Kind: KindHost, Subnet: "intranet", Role: "app"})
	top.MustAddNode(Node{Name: "db1", Kind: KindHost, Subnet: "intranet", Role: "db"})
	return top
}

func TestAddNodeValidation(t *testing.T) {
	top := New()
	tests := []struct {
		name    string
		node    Node
		wantErr bool
	}{
		{name: "ok", node: Node{Name: "a", Kind: KindHost, Role: "x"}, wantErr: false},
		{name: "empty", node: Node{Kind: KindHost}, wantErr: true},
		{name: "badKind", node: Node{Name: "b"}, wantErr: true},
		{name: "dup", node: Node{Name: "a", Kind: KindHost}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := top.AddNode(tt.node); (err != nil) != tt.wantErr {
				t.Errorf("AddNode err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestConnect(t *testing.T) {
	top := threeTier(t)
	if err := top.Connect("attacker", "web1"); err != nil {
		t.Fatal(err)
	}
	if !top.adj["attacker"]["web1"] {
		t.Error("edge should exist")
	}
	if top.adj["web1"]["attacker"] {
		t.Error("edges are directed")
	}
	if err := top.Connect("attacker", "nosuch"); err == nil {
		t.Error("Connect to unknown node should fail")
	}
	if err := top.Connect("nosuch", "web1"); err == nil {
		t.Error("Connect from unknown node should fail")
	}
	if err := top.Connect("web1", "web1"); err == nil {
		t.Error("self edge should fail")
	}
}

func TestNodeQueries(t *testing.T) {
	top := threeTier(t)
	if len(top.Nodes()) != 6 {
		t.Errorf("Nodes = %d, want 6", len(top.Nodes()))
	}
	if len(top.Hosts()) != 5 {
		t.Errorf("Hosts = %d, want 5", len(top.Hosts()))
	}
	att := top.Attackers()
	if len(att) != 1 || att[0].Name != "attacker" {
		t.Errorf("Attackers = %v", att)
	}
	n, ok := top.Node("web1")
	if !ok || n.Role != "web" {
		t.Errorf("Node(web1) = %+v, %v", n, ok)
	}
	hosts := top.Hosts()
	for i := 1; i < len(hosts); i++ {
		if hosts[i-1].Name >= hosts[i].Name {
			t.Error("Hosts must be sorted")
		}
	}
}

func TestSuccessorsSorted(t *testing.T) {
	top := threeTier(t)
	top.MustConnect("attacker", "web2")
	top.MustConnect("attacker", "dns1")
	top.MustConnect("attacker", "web1")
	got := top.Successors("attacker")
	want := []string{"dns1", "web1", "web2"}
	if len(got) != len(want) {
		t.Fatalf("Successors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Successors = %v, want %v", got, want)
		}
	}
}

func TestValidate(t *testing.T) {
	top := threeTier(t)
	if err := top.Validate(); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}

	t.Run("noAttacker", func(t *testing.T) {
		bad := New()
		bad.MustAddNode(Node{Name: "h", Kind: KindHost, Role: "x"})
		if err := bad.Validate(); err == nil {
			t.Error("topology without attacker should fail")
		}
	})
	t.Run("noHosts", func(t *testing.T) {
		bad := New()
		bad.MustAddNode(Node{Name: "a", Kind: KindAttacker})
		if err := bad.Validate(); err == nil {
			t.Error("topology without hosts should fail")
		}
	})
	t.Run("hostWithoutRole", func(t *testing.T) {
		bad := New()
		bad.MustAddNode(Node{Name: "a", Kind: KindAttacker})
		bad.MustAddNode(Node{Name: "h", Kind: KindHost})
		if err := bad.Validate(); err == nil {
			t.Error("host without role should fail")
		}
	})
}

func TestDOT(t *testing.T) {
	top := threeTier(t)
	top.MustConnect("attacker", "web1")
	dot := top.DOT()
	for _, want := range []string{"digraph", "cluster_", "attacker", "web1", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	if dot != top.DOT() {
		t.Error("DOT output must be deterministic")
	}
}
