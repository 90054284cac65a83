package paperdata

import (
	"slices"
	"testing"
	"time"

	"redpatch/internal/attacktree"
	"redpatch/internal/mathx"
	"redpatch/internal/patch"
	"redpatch/internal/vulndb"
)

// TestTable1Values verifies that every Table I row reproduces from the
// curated CVSS vectors: attack impact and attack success probability.
func TestTable1Values(t *testing.T) {
	db := VulnDB()
	tests := []struct {
		row        string
		id         string
		wantImpact float64
		wantASP    float64
	}{
		{row: "v1dns", id: "CVE-2016-3227", wantImpact: 10.0, wantASP: 1.0},
		{row: "v1web", id: "CVE-2016-4448", wantImpact: 10.0, wantASP: 1.0},
		{row: "v2web", id: "CVE-2015-4602", wantImpact: 10.0, wantASP: 1.0},
		{row: "v3web", id: "CVE-2015-4603", wantImpact: 10.0, wantASP: 1.0},
		{row: "v4web", id: "CVE-2016-4979", wantImpact: 2.9, wantASP: 1.0},
		{row: "v5web", id: "CVE-2016-4805", wantImpact: 10.0, wantASP: 0.39},
		{row: "v1app", id: "CVE-2016-3586", wantImpact: 10.0, wantASP: 1.0},
		{row: "v2app", id: "CVE-2016-3510", wantImpact: 10.0, wantASP: 1.0},
		{row: "v3app", id: "CVE-2016-3499", wantImpact: 10.0, wantASP: 1.0},
		{row: "v4app", id: "CVE-2016-0638", wantImpact: 6.4, wantASP: 1.0},
		{row: "v5app/v5db", id: "CVE-2016-4997", wantImpact: 10.0, wantASP: 0.39},
		{row: "v1db", id: "CVE-2016-6662", wantImpact: 10.0, wantASP: 1.0},
		{row: "v2db", id: "CVE-2016-0639", wantImpact: 10.0, wantASP: 1.0},
		{row: "v3db", id: "CVE-2015-3152", wantImpact: 2.9, wantASP: 0.86},
		{row: "v4db", id: "CVE-2016-3471", wantImpact: 10.0, wantASP: 0.39},
	}
	for _, tt := range tests {
		t.Run(tt.row, func(t *testing.T) {
			v, ok := db.ByID(tt.id)
			if !ok {
				t.Fatalf("%s missing from dataset", tt.id)
			}
			if got := v.Impact(); got != tt.wantImpact {
				t.Errorf("impact = %v, want %v", got, tt.wantImpact)
			}
			if got := v.ASP(); got != tt.wantASP {
				t.Errorf("ASP = %v, want %v", got, tt.wantASP)
			}
			if !v.Exploitable {
				t.Error("Table I rows are exploitable by definition")
			}
		})
	}
}

// TestCriticalCounts verifies the per-role critical-vulnerability counts
// that drive the paper's Table V MTTRs.
func TestCriticalCounts(t *testing.T) {
	db := VulnDB()
	pol := patch.CriticalPolicy()
	tests := []struct {
		role        string
		wantService int
		wantOS      int
	}{
		{role: RoleDNS, wantService: 1, wantOS: 2},
		{role: RoleWeb, wantService: 2, wantOS: 1},
		{role: RoleApp, wantService: 3, wantOS: 3},
		{role: RoleDB, wantService: 2, wantOS: 3},
	}
	for _, tt := range tests {
		t.Run(tt.role, func(t *testing.T) {
			vulns, err := VulnsForRole(db, tt.role)
			if err != nil {
				t.Fatal(err)
			}
			var osC, svcC int
			for _, v := range vulns {
				if !pol.Selects(v) {
					continue
				}
				if v.Component == vulndb.ComponentOS {
					osC++
				} else {
					svcC++
				}
			}
			if svcC != tt.wantService || osC != tt.wantOS {
				t.Errorf("critical counts = (%d service, %d os), want (%d, %d)",
					svcC, osC, tt.wantService, tt.wantOS)
			}
		})
	}
}

// TestExploitableCounts verifies the per-role exploitable counts implied
// by Table I (5 per web/app/db server, 1 for DNS).
func TestExploitableCounts(t *testing.T) {
	db := VulnDB()
	want := map[string]int{RoleDNS: 1, RoleWeb: 5, RoleApp: 5, RoleDB: 5}
	for role, n := range want {
		vulns, err := VulnsForRole(db, role)
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, v := range vulns {
			if v.Exploitable {
				got++
			}
		}
		if got != n {
			t.Errorf("%s exploitable = %d, want %d", role, got, n)
		}
	}
}

func TestTreesMatchPaperStructure(t *testing.T) {
	db := VulnDB()
	trees := Trees(db)
	tests := []struct {
		role       string
		wantString string
		wantImpact float64
	}{
		{role: RoleDNS, wantString: "OR(CVE-2016-3227)", wantImpact: 10.0},
		{role: RoleWeb, wantString: "OR(CVE-2016-4448, CVE-2015-4602, CVE-2015-4603, AND(CVE-2016-4979, CVE-2016-4805))", wantImpact: 12.9},
		{role: RoleApp, wantString: "OR(CVE-2016-3586, CVE-2016-3510, CVE-2016-3499, AND(CVE-2016-0638, CVE-2016-4997))", wantImpact: 16.4},
		{role: RoleDB, wantString: "OR(CVE-2016-6662, CVE-2016-0639, AND(CVE-2015-3152, CVE-2016-3471), CVE-2016-4997)", wantImpact: 12.9},
	}
	for _, tt := range tests {
		t.Run(tt.role, func(t *testing.T) {
			tr := trees[tt.role]
			if tr == nil {
				t.Fatal("missing tree")
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			if got := tr.String(); got != tt.wantString {
				t.Errorf("structure = %q, want %q", got, tt.wantString)
			}
			if got := tr.Impact(); !mathx.AlmostEqual(got, tt.wantImpact, 1e-9) {
				t.Errorf("impact = %v, want %v (paper §III-C)", got, tt.wantImpact)
			}
		})
	}
}

func TestDesigns(t *testing.T) {
	ds := Designs()
	if len(ds) != 5 {
		t.Fatalf("Designs = %d, want 5", len(ds))
	}
	if ds[0].Spec().Total() != 4 || ds[1].Spec().Total() != 5 {
		t.Error("design sizes wrong")
	}
	if got := ds[1].Spec().String(); got != "2 DNS + 1 WEB + 1 APP + 1 DB" {
		t.Errorf("String = %q", got)
	}
	base := BaseDesign()
	if got := base.Spec().Total(); got != 6 {
		t.Errorf("base design total = %d, want 6", got)
	}
	for _, d := range append(ds, base) {
		if err := d.Spec().Validate(); err != nil {
			t.Errorf("design %s invalid: %v", d.Name, err)
		}
	}
	if err := (Design{Name: "bad", DNS: 0, Web: 1, App: 1, DB: 1}).Spec().Validate(); err == nil {
		t.Error("zero-tier design should fail validation")
	}
}

func TestTopologyShape(t *testing.T) {
	top := SpecTopology(BaseDesign().Spec())
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(top.Hosts()); got != 6 {
		t.Errorf("hosts = %d, want 6", got)
	}
	for _, e := range [][2]string{
		{"attacker", "dns1"}, {"attacker", "web1"}, {"attacker", "web2"},
		{"dns1", "web2"}, {"web1", "app2"}, {"app1", "db1"},
	} {
		if !slices.Contains(top.Successors(e[0]), e[1]) {
			t.Errorf("edge %s -> %s missing", e[0], e[1])
		}
	}
	for _, e := range [][2]string{
		{"attacker", "app1"}, {"attacker", "db1"}, {"web1", "db1"}, {"dns1", "app1"},
	} {
		if slices.Contains(top.Successors(e[0]), e[1]) {
			t.Errorf("edge %s -> %s must not exist", e[0], e[1])
		}
	}
}

func TestVulnsForRoleUnknown(t *testing.T) {
	if _, err := VulnsForRole(VulnDB(), "mainframe"); err == nil {
		t.Error("unknown role should fail")
	}
}

// TestServerParams verifies the computed patch windows per role (the
// inputs behind Table IV/V).
func TestServerParams(t *testing.T) {
	db := VulnDB()
	tests := []struct {
		role     string
		wantSvc  time.Duration
		wantOS   time.Duration
		wantDown time.Duration
	}{
		{role: RoleDNS, wantSvc: 5 * time.Minute, wantOS: 20 * time.Minute, wantDown: 40 * time.Minute},
		{role: RoleWeb, wantSvc: 10 * time.Minute, wantOS: 10 * time.Minute, wantDown: 35 * time.Minute},
		{role: RoleApp, wantSvc: 15 * time.Minute, wantOS: 30 * time.Minute, wantDown: 60 * time.Minute},
		{role: RoleDB, wantSvc: 10 * time.Minute, wantOS: 30 * time.Minute, wantDown: 55 * time.Minute},
	}
	for _, tt := range tests {
		t.Run(tt.role, func(t *testing.T) {
			p, plan, err := ServerParams(db, tt.role, patch.CriticalPolicy(), patch.MonthlySchedule())
			if err != nil {
				t.Fatal(err)
			}
			if p.SvcPatchTime != tt.wantSvc {
				t.Errorf("SvcPatchTime = %v, want %v", p.SvcPatchTime, tt.wantSvc)
			}
			if p.OSPatchTime != tt.wantOS {
				t.Errorf("OSPatchTime = %v, want %v", p.OSPatchTime, tt.wantOS)
			}
			if got := plan.TotalDowntime(); got != tt.wantDown {
				t.Errorf("TotalDowntime = %v, want %v", got, tt.wantDown)
			}
			if err := p.Validate(); err != nil {
				t.Errorf("params invalid: %v", err)
			}
		})
	}
}

func TestDatasetSize(t *testing.T) {
	db := VulnDB()
	// 15 distinct Table I CVEs (CVE-2016-4997 shared) + 5 OS criticals
	// + 4 alt-web-stack records.
	all := db.All()
	if len(all) != 24 {
		t.Errorf("dataset size = %d, want 24", len(all))
	}
	critical := 0
	for _, v := range all {
		if v.IsCritical(8.0) {
			critical++
		}
	}
	if got := critical; got != 16 {
		// 9 critical exploitable (v1dns, v1-3web, v1-3app, v1db, v2db)
		// + 5 critical non-exploitable OS records + 2 alt-web criticals.
		t.Errorf("critical records = %d, want 16", got)
	}
}

// TestAltWebStack verifies the heterogeneity extension's dataset: tree
// structure, after-patch chain, and the 30-minute patch window.
func TestAltWebStack(t *testing.T) {
	db := VulnDB()
	tr := AltWebTree(db)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.String(); got != "OR(CVE-2016-4450, AND(CVE-2016-5385, CVE-2016-4557))" {
		t.Errorf("alt web tree = %s", got)
	}
	// The Apache stack and the Nginx stack must share no vulnerability.
	apache, err := VulnsForRole(db, RoleWeb)
	if err != nil {
		t.Fatal(err)
	}
	nginx, err := VulnsForRole(db, RoleWebAlt)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, v := range apache {
		seen[v.ID] = true
	}
	for _, v := range nginx {
		if seen[v.ID] {
			t.Errorf("stacks share %s; heterogeneity requires disjoint vulnerabilities", v.ID)
		}
	}
	// Patch window: 1 critical service vuln + 1 critical OS vuln = 30 min.
	_, plan, err := ServerParams(db, RoleWebAlt, patch.CriticalPolicy(), patch.MonthlySchedule())
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.TotalDowntime(); got != 30*time.Minute {
		t.Errorf("alt web downtime = %v, want 30m", got)
	}
	// After the critical patch the surviving chain has probability
	// 0.86 * 0.39.
	pruned := tr.Prune(func(l *attacktree.Leaf) bool {
		v, ok := db.ByID(l.Ref)
		return ok && !v.IsCritical(8.0)
	})
	if got := pruned.Probability(attacktree.ORMax); !mathx.AlmostEqual(got, 0.86*0.39, 1e-12) {
		t.Errorf("alt web after-patch probability = %v, want %v", got, 0.86*0.39)
	}
}
