package redpatch

// This file is the per-experiment reproduction index: one test per
// table/figure of the paper, each asserting the measured values against
// the published ones (or against the two deviations documented on
// TestExperimentE3_Table2) and logging a paper-vs-measured comparison.
// Run with `go test -v -run TestExperiment ./...` to see the comparisons.
// E2 (the HARM structure of Fig. 3) lives in internal/harm/paper_test.go,
// which reads the model's two layers directly.

import (
	"testing"
	"time"

	"redpatch/internal/attacktree"
	"redpatch/internal/availability"
	"redpatch/internal/harm"
	"redpatch/internal/mathx"
	"redpatch/internal/oracle"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
	"redpatch/internal/report"
	"redpatch/internal/srn"
)

// paperEvalOptions is the HARM configuration used for all experiments:
// exact compromise probability with noisy-OR tree combination. Of the
// aggregation rules harm offers it lands closest to the paper's after-patch
// ASP of 0.265 (0.234; TestASPStrategiesAfterPatch pins every rule).
var paperEvalOptions = harm.EvalOptions{Strategy: harm.ASPCompromise, ORRule: attacktree.ORNoisy}

// TestExperimentE1_Table1 reproduces Table I: the impact and attack
// success probability of every vulnerability, derived from CVSS vectors.
func TestExperimentE1_Table1(t *testing.T) {
	db := paperdata.VulnDB()
	rows := []struct {
		label, id           string
		wantImpact, wantASP float64
	}{
		{"v1dns", "CVE-2016-3227", 10.0, 1.0},
		{"v1web", "CVE-2016-4448", 10.0, 1.0},
		{"v2web", "CVE-2015-4602", 10.0, 1.0},
		{"v3web", "CVE-2015-4603", 10.0, 1.0},
		{"v4web", "CVE-2016-4979", 2.9, 1.0},
		{"v5web", "CVE-2016-4805", 10.0, 0.39},
		{"v1app", "CVE-2016-3586", 10.0, 1.0},
		{"v2app", "CVE-2016-3510", 10.0, 1.0},
		{"v3app", "CVE-2016-3499", 10.0, 1.0},
		{"v4app", "CVE-2016-0638", 6.4, 1.0},
		{"v5app", "CVE-2016-4997", 10.0, 0.39},
		{"v1db", "CVE-2016-6662", 10.0, 1.0},
		{"v2db", "CVE-2016-0639", 10.0, 1.0},
		{"v3db", "CVE-2015-3152", 2.9, 0.86},
		{"v4db", "CVE-2016-3471", 10.0, 0.39},
		{"v5db", "CVE-2016-4997", 10.0, 0.39},
	}
	tbl := report.NewTable("Table I (paper vs measured)", "row", "CVE", "impact", "ASP")
	for _, row := range rows {
		v, ok := db.ByID(row.id)
		if !ok {
			t.Fatalf("%s: %s missing", row.label, row.id)
		}
		if v.Impact() != row.wantImpact || v.ASP() != row.wantASP {
			t.Errorf("%s: got (%.1f, %.2f), paper (%.1f, %.2f)",
				row.label, v.Impact(), v.ASP(), row.wantImpact, row.wantASP)
		}
		tbl.AddRow(row.label, row.id, report.F(v.Impact(), 1), report.F(v.ASP(), 2))
	}
	t.Logf("\n%s", tbl.Render())
}

// TestExperimentE3_Table2 reproduces Table II, the security metrics of
// the base network before and after patch. Two deviations from the
// printed table: NoEV before = 26 (the paper prints 25, but summing its
// Table I exploitable vulnerabilities over instances gives 1 + 2*5 + 2*5
// + 5 = 26) and ASP after = 0.234 (the paper prints 0.265; no published
// aggregation rule reproduces it — ours preserves every qualitative
// conclusion).
func TestExperimentE3_Table2(t *testing.T) {
	db := paperdata.VulnDB()
	top, err := paperdata.Topology(paperdata.BaseDesign())
	if err != nil {
		t.Fatal(err)
	}
	h, err := harm.Build(harm.BuildInput{Topology: top, Trees: paperdata.Trees(db), TargetRoles: []string{paperdata.RoleDB}})
	if err != nil {
		t.Fatal(err)
	}
	pol := patch.CriticalPolicy()
	patched, err := h.Patched(func(role string, l *attacktree.Leaf) bool {
		v, ok := db.ByID(l.Ref)
		return !ok || !pol.Selects(v)
	})
	if err != nil {
		t.Fatal(err)
	}
	before, err := h.Evaluate(paperEvalOptions)
	if err != nil {
		t.Fatal(err)
	}
	after, err := patched.Evaluate(paperEvalOptions)
	if err != nil {
		t.Fatal(err)
	}

	tbl := report.NewTable("Table II (paper vs measured)", "metric", "paper before", "measured before", "paper after", "measured after")
	tbl.AddRow("AIM", "52.2", report.F(before.AIM, 1), "42.2", report.F(after.AIM, 1))
	tbl.AddRow("ASP", "1.0", report.F(before.ASP, 3), "0.265", report.F(after.ASP, 3))
	tbl.AddRow("NoEV", "25 (rule gives 26)", report.I(before.NoEV), "11", report.I(after.NoEV))
	tbl.AddRow("NoAP", "8", report.I(before.NoAP), "4", report.I(after.NoAP))
	tbl.AddRow("NoEP", "3", report.I(before.NoEP), "2", report.I(after.NoEP))
	t.Logf("\n%s", tbl.Render())

	if mathx.Round1(before.AIM) != 52.2 || mathx.Round1(after.AIM) != 42.2 {
		t.Errorf("AIM = %v -> %v, want 52.2 -> 42.2", before.AIM, after.AIM)
	}
	if before.ASP != 1.0 {
		t.Errorf("ASP before = %v, want 1.0", before.ASP)
	}
	if after.ASP < 0.2 || after.ASP > 0.3 {
		t.Errorf("ASP after = %v, want within [0.2, 0.3] around the paper's 0.265", after.ASP)
	}
	if before.NoEV != 26 || after.NoEV != 11 {
		t.Errorf("NoEV = %d -> %d, want 26 -> 11", before.NoEV, after.NoEV)
	}
	if before.NoAP != 8 || after.NoAP != 4 || before.NoEP != 3 || after.NoEP != 2 {
		t.Errorf("paths/entry points = (%d,%d) -> (%d,%d), want (8,3) -> (4,2)",
			before.NoAP, before.NoEP, after.NoAP, after.NoEP)
	}
}

// TestExperimentE4_Table3 verifies the guard-function structure of Table
// III: the 20 guarded transitions exist and the generated state space
// honours their dependencies (spot-checked through reachability).
func TestExperimentE4_Table3(t *testing.T) {
	params, _, err := paperdata.ServerParams(paperdata.VulnDB(), paperdata.RoleDNS, patch.CriticalPolicy(), patch.MonthlySchedule())
	if err != nil {
		t.Fatal(err)
	}
	net, pl, err := availability.BuildServerSRN(params)
	if err != nil {
		t.Fatal(err)
	}
	guarded := []string{
		"Tosd", "Tosdrb", "Tosfup", "Tosptrig", "Tosp", "Tosrpd", "Tospd", "Tosprb",
		"Tsvcd", "Tsvcdrb", "Tsvcfup", "Tsvcptrig", "Tsvcp", "Tsvcrpd", "Tsvcrrb", "Tsvcrrbd", "Tsvcprb",
		"Tinterval", "Tpolicy", "Treset",
	}
	for _, name := range guarded {
		if !hasServerTransition(t, params, name) {
			t.Errorf("guarded transition %s missing", name)
		}
	}
	ss, err := net.Generate(srn.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Guard semantics spot check: no tangible marking may have the
	// service up while the hardware is down (gsvcd forces it down).
	for _, m := range ss.Markings() {
		if m.Tokens(pl.SvcUp) == 1 && m.Tokens(pl.HWDown) == 1 {
			t.Errorf("guard violation: service up with hardware down in %s", net.MarkingString(m))
		}
		if m.Tokens(pl.OSUp) == 1 && m.Tokens(pl.HWDown) == 1 {
			t.Errorf("guard violation: OS up with hardware down in %s", net.MarkingString(m))
		}
	}
	t.Logf("server SRN: %d tangible + %d vanishing markings, %d transitions (%d guarded)",
		ss.NumTangible(), ss.NumVanishing(), len(net.Transitions()), len(guarded))
}

// hasServerTransition reports whether the server SRN built from params
// has a transition of the given name, probing a fresh build of the net:
// srn refuses a second transition of a name it already holds.
func hasServerTransition(t *testing.T, params availability.ServerParams, name string) (found bool) {
	t.Helper()
	net, _, err := availability.BuildServerSRN(params)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { found = recover() != nil }()
	net.AddImmediateTransition(name)
	return false
}

// TestExperimentE5_Table4 verifies the SRN input parameters of Table IV
// for the DNS server.
func TestExperimentE5_Table4(t *testing.T) {
	params, plan, err := paperdata.ServerParams(paperdata.VulnDB(), paperdata.RoleDNS, patch.CriticalPolicy(), patch.MonthlySchedule())
	if err != nil {
		t.Fatal(err)
	}
	tbl := report.NewTable("Table IV (DNS server, paper vs measured)", "parameter", "paper", "measured")
	check := func(label, paper string, got, want time.Duration) {
		tbl.AddRow(label, paper, got.String())
		if got != want {
			t.Errorf("%s = %v, want %v", label, got, want)
		}
	}
	check("1/lambda_hw", "87600h", params.HWMTBF, 87600*time.Hour)
	check("1/mu_hw", "1h", params.HWRepair, time.Hour)
	check("1/lambda_os", "1440h", params.OSMTBF, 1440*time.Hour)
	check("1/mu_os", "1h", params.OSRepair, time.Hour)
	check("1/alpha_os", "20m", params.OSPatchTime, 20*time.Minute)
	check("1/beta_os", "10m", params.OSReboot, 10*time.Minute)
	check("1/delta_os", "10m", params.OSRebootAfterFailure, 10*time.Minute)
	check("1/lambda_dns", "336h", params.SvcMTBF, 336*time.Hour)
	check("1/mu_dns", "30m", params.SvcRepair, 30*time.Minute)
	check("1/alpha_dns", "5m", params.SvcPatchTime, 5*time.Minute)
	check("1/beta_dns", "5m", params.SvcReboot, 5*time.Minute)
	check("1/delta_dns", "5m", params.SvcRebootAfterFailure, 5*time.Minute)
	check("1/tau_p", "720h", params.PatchInterval, 720*time.Hour)
	t.Logf("\n%s", tbl.Render())
	if plan.ServiceCount != 1 || plan.OSCount != 2 {
		t.Errorf("DNS critical counts = (%d, %d), want (1 service, 2 OS)", plan.ServiceCount, plan.OSCount)
	}
}

// TestExperimentE6_Table5 reproduces Table V: the aggregated patch and
// recovery rates of all four server types, including the paper's
// published intermediate probabilities for the DNS server.
func TestExperimentE6_Table5(t *testing.T) {
	rows := []struct {
		role               string
		paperMu, paperMTTR float64
	}{
		{paperdata.RoleDNS, 1.49992, 0.6667},
		{paperdata.RoleWeb, 1.71420, 0.5834},
		{paperdata.RoleApp, 0.99995, 1.0001},
		{paperdata.RoleDB, 1.09085, 0.9167},
	}
	tbl := report.NewTable("Table V (paper vs measured)",
		"service", "MTTP (h)", "patch rate", "paper MTTR", "measured MTTR", "paper mu", "measured mu")
	db := paperdata.VulnDB()
	for _, row := range rows {
		params, _, err := paperdata.ServerParams(db, row.role, patch.CriticalPolicy(), patch.MonthlySchedule())
		if err != nil {
			t.Fatal(err)
		}
		sol, err := availability.SolveServer(params)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := availability.Aggregate(sol)
		if err != nil {
			t.Fatal(err)
		}
		tbl.AddRow(row.role, report.F(agg.MTTP(), 0), report.F(agg.LambdaEq, 5),
			report.F(row.paperMTTR, 4), report.F(agg.MTTR(), 4),
			report.F(row.paperMu, 5), report.F(agg.MuEq, 5))
		if !mathx.AlmostEqual(agg.MuEq, row.paperMu, 1e-4) {
			t.Errorf("%s mu_eq = %.5f, paper %.5f", row.role, agg.MuEq, row.paperMu)
		}
		if !mathx.AlmostEqual(agg.MTTR(), row.paperMTTR, 1e-4) {
			t.Errorf("%s MTTR = %.4f, paper %.4f", row.role, agg.MTTR(), row.paperMTTR)
		}
		if row.role == paperdata.RoleDNS {
			if !mathx.AlmostEqual(sol.ReadyToReboot, 0.00011563, 1e-4) {
				t.Errorf("dns p_prrb = %.8f, paper 0.00011563", sol.ReadyToReboot)
			}
			if !mathx.AlmostEqual(sol.PatchDown, 0.00092506, 1e-4) {
				t.Errorf("dns p_pd = %.8f, paper 0.00092506", sol.PatchDown)
			}
		}
	}
	t.Logf("\n%s", tbl.Render())
}

// TestExperimentE7_Table6 reproduces Table VI: the COA reward of the base
// network and its value 0.99707.
func TestExperimentE7_Table6(t *testing.T) {
	s, _ := caseStudy(t)
	base, err := s.BaseNetwork()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("COA: paper 0.99707, measured %.5f", base.COA)
	if !mathx.AlmostEqual(base.COA, 0.99707, 1e-4) {
		t.Errorf("COA = %.6f, paper 0.99707", base.COA)
	}
}

// TestExperimentE8_Figure6 reproduces both panels of Fig. 6 (ASP vs COA
// scatter for the five designs) and the Eq. 3 decision regions.
func TestExperimentE8_Figure6(t *testing.T) {
	_, ds := caseStudy(t)
	beforePanel := report.ScatterSeries{Title: "Fig. 6(a) before patch", XLabel: "ASP", YLabel: "COA"}
	afterPanel := report.ScatterSeries{Title: "Fig. 6(b) after patch", XLabel: "ASP", YLabel: "COA"}
	for _, d := range ds {
		beforePanel.Points = append(beforePanel.Points, report.ScatterPoint{Label: d.Description, X: d.Before.ASP, Y: d.COA})
		afterPanel.Points = append(afterPanel.Points, report.ScatterPoint{Label: d.Description, X: d.After.ASP, Y: d.COA})
		if d.Before.ASP != 1.0 {
			t.Errorf("%s before ASP = %v, want 1.0 (all designs maximal before patch)", d.Name, d.Before.ASP)
		}
		if d.COA < 0.9955 || d.COA > 0.9965 {
			t.Errorf("%s COA = %v outside Fig. 6 axis range", d.Name, d.COA)
		}
	}
	t.Logf("\n%s\n%s", beforePanel.ASCIIPlot(56, 12), afterPanel.ASCIIPlot(56, 12))

	region1 := FilterScatter(ds, ScatterBounds{MaxASP: 0.2, MinCOA: 0.9962})
	region2 := FilterScatter(ds, ScatterBounds{MaxASP: 0.1, MinCOA: 0.9961})
	t.Logf("Eq.3 region 1 (phi=0.2, psi=0.9962): %v (paper: D4, D5)", names(region1))
	t.Logf("Eq.3 region 2 (phi=0.1, psi=0.9961): %v (paper: D2)", names(region2))
	if len(region1) != 2 || region1[0].Name != "D4" || region1[1].Name != "D5" {
		t.Errorf("region 1 = %v, paper selects D4 and D5", names(region1))
	}
	if len(region2) != 1 || region2[0].Name != "D2" {
		t.Errorf("region 2 = %v, paper selects D2", names(region2))
	}
}

// TestExperimentE9_Figure7 reproduces both panels of Fig. 7 (six-metric
// radar chart for the five designs) and the Eq. 4 decision regions.
func TestExperimentE9_Figure7(t *testing.T) {
	_, ds := caseStudy(t)
	mkChart := func(title string, pick func(DesignReport) SecuritySummary) *report.Table {
		chart := report.NewTable(title, "design", "NoEP", "COA", "ASP", "AIM", "NoEV", "NoAP")
		for _, d := range ds {
			sec := pick(d)
			chart.AddRow(d.Description, report.I(sec.NoEP), report.F(d.COA, 6), report.F(sec.ASP, 6),
				report.F(sec.AIM, 1), report.I(sec.NoEV), report.I(sec.NoAP))
		}
		return chart
	}
	before := mkChart("Fig. 7(a) before patch", func(d DesignReport) SecuritySummary { return d.Before })
	after := mkChart("Fig. 7(b) after patch", func(d DesignReport) SecuritySummary { return d.After })
	t.Logf("\n%s\n%s", before.Render(), after.Render())

	// Paper §IV-B qualitative anchors.
	for _, d := range ds {
		if !mathx.AlmostEqual(d.Before.AIM, 52.2, 1e-9) {
			t.Errorf("%s before AIM = %v, want 52.2 (identical in every design)", d.Name, d.Before.AIM)
		}
		if !mathx.AlmostEqual(d.After.AIM, 42.2, 1e-9) {
			t.Errorf("%s after AIM = %v, want 42.2 (identical in every design)", d.Name, d.After.AIM)
		}
	}

	region1 := FilterMulti(ds, MultiBounds{MaxASP: 0.2, MaxNoEV: 9, MaxNoAP: 2, MaxNoEP: 1, MinCOA: 0.9962})
	region2 := FilterMulti(ds, MultiBounds{MaxASP: 0.1, MaxNoEV: 7, MaxNoAP: 1, MaxNoEP: 1, MinCOA: 0.9961})
	t.Logf("Eq.4 region 1: %v (paper: D4)", names(region1))
	t.Logf("Eq.4 region 2: %v (paper: D2)", names(region2))
	if len(region1) != 1 || region1[0].Name != "D4" {
		t.Errorf("Eq.4 region 1 = %v, paper selects D4", names(region1))
	}
	if len(region2) != 1 || region2[0].Name != "D2" {
		t.Errorf("Eq.4 region 2 = %v, paper selects D2", names(region2))
	}
}

// TestExperimentE10_Observations verifies the two §IV-C observations.
func TestExperimentE10_Observations(t *testing.T) {
	_, ds := caseStudy(t)
	byName := make(map[string]DesignReport, len(ds))
	for _, d := range ds {
		byName[d.Name] = d
	}
	// Observation 1: redundancy on the tier with the lowest recovery rate
	// (app, mu 0.99995) yields the largest COA gain.
	gain := func(name string) float64 { return byName[name].COA - byName["D1"].COA }
	for _, other := range []string{"D2", "D3", "D5"} {
		if gain("D4") <= gain(other) {
			t.Errorf("observation 1 violated: gain(D4)=%.6f <= gain(%s)=%.6f", gain("D4"), other, gain(other))
		}
	}
	// Observation 2: a redundant server with no exploitable vulnerability
	// after patch (the DNS server) does not decrease security while
	// improving availability.
	d1, d2 := byName["D1"], byName["D2"]
	if d2.After != d1.After {
		t.Errorf("observation 2 violated: D2 after-patch security %+v differs from D1 %+v", d2.After, d1.After)
	}
	if d2.COA <= d1.COA {
		t.Errorf("observation 2 violated: D2 COA %.6f not above D1 %.6f", d2.COA, d1.COA)
	}
	t.Logf("COA gains over D1: D2=%.6f D3=%.6f D4=%.6f D5=%.6f", gain("D2"), gain("D3"), gain("D4"), gain("D5"))
}

// TestExperimentE11_Extensions exercises the §V extensions that a surface
// serves: patch schedules, patch prioritization, and Monte-Carlo
// validation.
func TestExperimentE11_Extensions(t *testing.T) {
	t.Run("patchSchedules", func(t *testing.T) {
		var coas []float64
		for _, interval := range []float64{168, 720, 2160} { // weekly, monthly, quarterly
			s, err := NewCaseStudyWithConfig(Config{PatchIntervalHours: interval})
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.BaseNetwork()
			if err != nil {
				t.Fatal(err)
			}
			coas = append(coas, r.COA)
			t.Logf("interval %.0f h: COA %.6f", interval, r.COA)
		}
		if !(coas[0] < coas[1] && coas[1] < coas[2]) {
			t.Errorf("COA should grow with the patch interval: %v", coas)
		}
	})
	t.Run("patchPrioritization", func(t *testing.T) {
		db := paperdata.VulnDB()
		top, err := paperdata.Topology(paperdata.BaseDesign())
		if err != nil {
			t.Fatal(err)
		}
		h, err := harm.Build(harm.BuildInput{Topology: top, Trees: paperdata.Trees(db), TargetRoles: []string{paperdata.RoleDB}})
		if err != nil {
			t.Fatal(err)
		}
		candidates, err := h.RankPatchCandidatesWhere(paperEvalOptions, nil)
		if err != nil {
			t.Fatal(err)
		}
		if candidates[0].Ref != "CVE-2016-3227" {
			t.Errorf("top patch candidate = %s, want CVE-2016-3227 (clears the DNS stepping stone)", candidates[0].Ref)
		}
		for i, c := range candidates[:3] {
			t.Logf("#%d %s risk reduction %.2f (hosts %v)", i+1, c.Ref, c.RiskReduction, c.Hosts)
		}
	})
	t.Run("simulation", func(t *testing.T) {
		if testing.Short() {
			t.Skip("Monte Carlo validation skipped in -short mode")
		}
		nm := availability.NetworkModel{Tiers: []availability.Tier{
			{Name: "dns", N: 1, LambdaEq: 1.0 / 720, MuEq: 1.49992},
			{Name: "web", N: 2, LambdaEq: 1.0 / 720, MuEq: 1.71420},
			{Name: "app", N: 2, LambdaEq: 1.0 / 720, MuEq: 0.99995},
			{Name: "db", N: 1, LambdaEq: 1.0 / 720, MuEq: 1.09085},
		}}
		net, ups, err := oracle.BuildNetworkSRN(nm)
		if err != nil {
			t.Fatal(err)
		}
		est, err := oracle.EstimateReward(net, oracle.COAReward(nm, ups),
			oracle.SimOptions{Horizon: 20000, Batches: 40, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := oracle.SolveNetworkSRN(nm)
		if err != nil {
			t.Fatal(err)
		}
		analytic := sol.COA
		t.Logf("simulated COA %.6f ± %.6f vs analytic %.6f", est.Mean, est.StdErr, analytic)
		if diff := est.Mean - analytic; diff > 4*est.StdErr+1e-4 || diff < -(4*est.StdErr+1e-4) {
			t.Errorf("simulation %.6f disagrees with analytic %.6f", est.Mean, analytic)
		}
	})
}

// TestExperimentE13_Campaign traces the attack surface across a
// multi-round patch campaign (the paper's "monthly patch of 3 months"
// future work): every server patches its criticals in 35-minute
// maintenance windows, and the security metrics must descend round by
// round to the Table II after-patch values.
func TestExperimentE13_Campaign(t *testing.T) {
	db := paperdata.VulnDB()
	top, err := paperdata.Topology(paperdata.BaseDesign())
	if err != nil {
		t.Fatal(err)
	}
	h, err := harm.Build(harm.BuildInput{Topology: top, Trees: paperdata.Trees(db), TargetRoles: []string{paperdata.RoleDB}})
	if err != nil {
		t.Fatal(err)
	}

	// Plan one campaign per role under the 35-minute constraint.
	campaigns := make(map[string]patch.Campaign, 4)
	maxRounds := 0
	for _, role := range paperdata.Roles() {
		vulns, err := paperdata.VulnsForRole(db, role)
		if err != nil {
			t.Fatal(err)
		}
		camp, err := patch.PlanCampaign(role, vulns, patch.CriticalPolicy(), patch.MonthlySchedule(), 35*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if len(camp.Deferred) != 0 {
			t.Fatalf("%s: deferred %v; every critical fits a 35m window", role, camp.Deferred)
		}
		campaigns[role] = camp
		if camp.TotalRounds() > maxRounds {
			maxRounds = camp.TotalRounds()
		}
	}
	if maxRounds < 2 {
		t.Fatalf("maxRounds = %d; expected the campaign to need several rounds", maxRounds)
	}

	prevNoEV := -1
	prevASP := 2.0
	for round := 0; round <= maxRounds; round++ {
		patched := make(map[string]bool)
		for _, camp := range campaigns {
			for i := 0; i < round && i < camp.TotalRounds(); i++ {
				for _, v := range camp.Rounds[i].Selected {
					patched[v.ID] = true
				}
			}
		}
		state, err := h.Patched(func(role string, l *attacktree.Leaf) bool { return !patched[l.Ref] })
		if err != nil {
			t.Fatal(err)
		}
		m, err := state.Evaluate(paperEvalOptions)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("after round %d: NoEV %d, NoAP %d, ASP %.4f", round, m.NoEV, m.NoAP, m.ASP)
		if round == 0 {
			if m.NoEV != 26 {
				t.Errorf("round 0 NoEV = %d, want the pre-patch 26", m.NoEV)
			}
		} else {
			if m.NoEV > prevNoEV {
				t.Errorf("NoEV rose between rounds: %d -> %d", prevNoEV, m.NoEV)
			}
			if m.ASP > prevASP+1e-12 {
				t.Errorf("ASP rose between rounds: %v -> %v", prevASP, m.ASP)
			}
		}
		prevNoEV, prevASP = m.NoEV, m.ASP
		if round == maxRounds {
			if m.NoEV != 11 || m.NoAP != 4 {
				t.Errorf("campaign end state = NoEV %d NoAP %d, want the Table II after-patch 11/4", m.NoEV, m.NoAP)
			}
		}
	}
}
