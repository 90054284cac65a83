package redpatch

// Micro-benchmarks for the paths the socket benchmark in bench/ never
// times: the expanded-HARM builds behind the paper's Tables I-V and
// Fig. 3, the ablation of the ASP aggregation strategies, the SRN,
// expanded-HARM and Monte-Carlo oracles, the factored solver past
// redpatchd's replica cap, and the campaign and patch-ranking
// extensions. Evaluate, sweep and rollout are measured end to end
// through redpatchd by bench/run.sh instead. Each benchmark regenerates
// its artefact per iteration, so ns/op measures the cost of a full
// reproduction of that table or figure.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"redpatch/internal/attacktree"
	"redpatch/internal/availability"
	"redpatch/internal/harm"
	"redpatch/internal/oracle"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
	"redpatch/internal/srn"
	"redpatch/internal/vulndb"
)

// BenchmarkTable1VulnerabilityScores scores the full curated dataset
// (impact, exploitability, base score, criticality) as Table I requires.
func BenchmarkTable1VulnerabilityScores(b *testing.B) {
	db := paperdata.VulnDB()
	vulns := db.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var criticals int
		for _, v := range vulns {
			_ = v.Impact()
			_ = v.ASP()
			if v.IsCritical(8.0) {
				criticals++
			}
		}
		// 14 case-study criticals + 2 on the alternative web stack.
		if criticals != 16 {
			b.Fatalf("criticals = %d", criticals)
		}
	}
}

// BenchmarkFigure3HARMConstruction builds the two-layered HARMs of
// Fig. 3: the before-patch model and its patched transformation.
func BenchmarkFigure3HARMConstruction(b *testing.B) {
	db := paperdata.VulnDB()
	trees := paperdata.Trees(db)
	top := paperdata.SpecTopology(paperdata.BaseDesign().Spec())
	pol := patch.CriticalPolicy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := harm.Build(harm.BuildInput{Topology: top, Trees: trees, TargetRoles: []string{paperdata.RoleDB}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Patched(func(role string, l *attacktree.Leaf) bool {
			v, ok := db.ByID(l.Ref)
			return !ok || !pol.Selects(v)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2SecurityMetrics evaluates the five security metrics
// before and after patch on the base network (Table II).
func BenchmarkTable2SecurityMetrics(b *testing.B) {
	db := paperdata.VulnDB()
	top := paperdata.SpecTopology(paperdata.BaseDesign().Spec())
	h, err := harm.Build(harm.BuildInput{Topology: top, Trees: paperdata.Trees(db), TargetRoles: []string{paperdata.RoleDB}})
	if err != nil {
		b.Fatal(err)
	}
	pol := patch.CriticalPolicy()
	patched, err := h.Patched(func(role string, l *attacktree.Leaf) bool {
		v, ok := db.ByID(l.Ref)
		return !ok || !pol.Selects(v)
	})
	if err != nil {
		b.Fatal(err)
	}
	opts := harm.EvalOptions{Strategy: harm.ASPCompromise, ORRule: attacktree.ORNoisy}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before, err := h.Evaluate(opts)
		if err != nil {
			b.Fatal(err)
		}
		after, err := patched.Evaluate(opts)
		if err != nil {
			b.Fatal(err)
		}
		if before.NoAP != 8 || after.NoAP != 4 {
			b.Fatal("wrong path counts")
		}
	}
}

// BenchmarkTable3GuardEvaluation builds the guarded server SRN of Table
// III and generates its state space (every guard evaluated across the
// reachability exploration).
func BenchmarkTable3GuardEvaluation(b *testing.B) {
	params, _, err := paperdata.ServerParams(paperdata.VulnDB(), paperdata.RoleDNS, patch.CriticalPolicy(), patch.MonthlySchedule())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net, _, err := availability.BuildServerSRN(params)
		if err != nil {
			b.Fatal(err)
		}
		ss, err := net.Generate(srn.GenerateOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if ss.NumTangible() != 27 {
			b.Fatalf("tangible = %d", ss.NumTangible())
		}
	}
}

// BenchmarkTable4ServerModelSolve solves the DNS server's lower-layer
// model with the Table IV parameters (state space + CTMC steady state).
func BenchmarkTable4ServerModelSolve(b *testing.B) {
	params, _, err := paperdata.ServerParams(paperdata.VulnDB(), paperdata.RoleDNS, patch.CriticalPolicy(), patch.MonthlySchedule())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := availability.SolveServer(params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5AggregatedRates solves and aggregates all four server
// types (the whole of Table V).
func BenchmarkTable5AggregatedRates(b *testing.B) {
	db := paperdata.VulnDB()
	var params []availability.ServerParams
	for _, role := range paperdata.Roles() {
		p, _, err := paperdata.ServerParams(db, role, patch.CriticalPolicy(), patch.MonthlySchedule())
		if err != nil {
			b.Fatal(err)
		}
		params = append(params, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range params {
			sol, err := availability.SolveServer(p)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := availability.Aggregate(sol); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationASPStrategies compares the three ASP aggregation
// strategies on the patched base network.
func BenchmarkAblationASPStrategies(b *testing.B) {
	db := paperdata.VulnDB()
	top := paperdata.SpecTopology(paperdata.BaseDesign().Spec())
	h, err := harm.Build(harm.BuildInput{Topology: top, Trees: paperdata.Trees(db), TargetRoles: []string{paperdata.RoleDB}})
	if err != nil {
		b.Fatal(err)
	}
	pol := patch.CriticalPolicy()
	patched, err := h.Patched(func(role string, l *attacktree.Leaf) bool {
		v, ok := db.ByID(l.Ref)
		return !ok || !pol.Selects(v)
	})
	if err != nil {
		b.Fatal(err)
	}
	strategies := []harm.ASPStrategy{harm.ASPMaxPath, harm.ASPIndependentPaths, harm.ASPCompromise}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range strategies {
			if _, err := patched.Evaluate(harm.EvalOptions{Strategy: st}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSimulationValidation runs the Monte-Carlo cross-validation of
// the upper-layer model (short horizon per iteration).
func BenchmarkSimulationValidation(b *testing.B) {
	nm := paperNetworkModel(b)
	net, ups, err := oracle.BuildNetworkSRN(nm)
	if err != nil {
		b.Fatal(err)
	}
	reward := oracle.COAReward(nm, ups)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.EstimateReward(net, reward, oracle.SimOptions{Horizon: 2000, Batches: 2, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalabilityHARM measures security-model evaluation as the
// network grows: n replicas in every tier multiply the attack paths
// (n^3(n+1) of them), the scalability pressure the HARM literature
// targets.
func BenchmarkScalabilityHARM(b *testing.B) {
	db := paperdata.VulnDB()
	trees := paperdata.Trees(db)
	for _, n := range []int{1, 2, 3, 4} {
		n := n
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			top := paperdata.SpecTopology(paperdata.Design{Name: "scale", DNS: n, Web: n, App: n, DB: n}.Spec())
			h, err := harm.Build(harm.BuildInput{Topology: top, Trees: trees, TargetRoles: []string{paperdata.RoleDB}})
			if err != nil {
				b.Fatal(err)
			}
			// Path-OR aggregation keeps the bench about enumeration, not
			// about the exponential exact computation.
			opts := harm.EvalOptions{Strategy: harm.ASPIndependentPaths}
			wantPaths := n * n * n * (n + 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := h.Evaluate(opts)
				if err != nil {
					b.Fatal(err)
				}
				if m.NoAP != wantPaths {
					b.Fatalf("paths = %d, want %d", m.NoAP, wantPaths)
				}
			}
		})
	}
}

// BenchmarkScalabilitySRNOracle measures the generated-SRN path the
// factored solver replaced (kept as its cross-validation oracle):
// state-space generation plus CTMC steady
// state over (n+1)^4 states.
func BenchmarkScalabilitySRNOracle(b *testing.B) {
	base := paperNetworkModel(b)
	for _, n := range []int{2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			nm := availability.NetworkModel{Tiers: append([]availability.Tier(nil), base.Tiers...)}
			for i := range nm.Tiers {
				nm.Tiers[i].N = n
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := oracle.SolveNetworkSRN(nm)
				if err != nil {
					b.Fatal(err)
				}
				want := (n + 1) * (n + 1) * (n + 1) * (n + 1)
				if sol.States != want {
					b.Fatalf("states = %d, want %d", sol.States, want)
				}
			}
		})
	}
}

// BenchmarkScalabilityFactored pushes the factored solver past where the
// product CTMC stops being generable at all: 33^4 through 257^4 states.
func BenchmarkScalabilityFactored(b *testing.B) {
	base := paperNetworkModel(b)
	for _, n := range []int{32, 64, 256} {
		n := n
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			nm := availability.NetworkModel{Tiers: append([]availability.Tier(nil), base.Tiers...)}
			for i := range nm.Tiers {
				nm.Tiers[i].N = n
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := solveFactored(nm)
				if err != nil {
					b.Fatal(err)
				}
				if sol.COA <= 0 || sol.COA >= 1 {
					b.Fatalf("implausible COA %v", sol.COA)
				}
			}
		})
	}
}

// BenchmarkExtensionCampaign measures multi-round campaign planning for
// all four server roles under a 35-minute window.
func BenchmarkExtensionCampaign(b *testing.B) {
	db := paperdata.VulnDB()
	roleVulns := make(map[string][]vulndb.Vulnerability, 4)
	for _, role := range paperdata.Roles() {
		vulns, err := paperdata.VulnsForRole(db, role)
		if err != nil {
			b.Fatal(err)
		}
		roleVulns[role] = vulns
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for role, vulns := range roleVulns {
			camp, err := patch.PlanCampaign(role, vulns, patch.CriticalPolicy(), patch.MonthlySchedule(), 35*time.Minute)
			if err != nil {
				b.Fatal(err)
			}
			if camp.TotalRounds() == 0 {
				b.Fatal("empty campaign")
			}
		}
	}
}

// BenchmarkExtensionPatchPrioritization measures the single-patch
// vulnerability-ranking extension on the base network.
func BenchmarkExtensionPatchPrioritization(b *testing.B) {
	db := paperdata.VulnDB()
	top := paperdata.SpecTopology(paperdata.BaseDesign().Spec())
	h, err := harm.Build(harm.BuildInput{Topology: top, Trees: paperdata.Trees(db), TargetRoles: []string{paperdata.RoleDB}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.RankPatchCandidatesWhere(harm.EvalOptions{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// paperNetworkModel returns the aggregated base-design network model,
// cached across benchmarks.
func paperNetworkModel(b *testing.B) availability.NetworkModel {
	b.Helper()
	paperNMOnce.Do(func() {
		db := paperdata.VulnDB()
		base := paperdata.BaseDesign()
		for i, role := range paperdata.Roles() {
			p, _, err := paperdata.ServerParams(db, role, patch.CriticalPolicy(), patch.MonthlySchedule())
			if err != nil {
				paperNMErr = err
				return
			}
			sol, err := availability.SolveServer(p)
			if err != nil {
				paperNMErr = err
				return
			}
			agg, err := availability.Aggregate(sol)
			if err != nil {
				paperNMErr = err
				return
			}
			n := []int{base.DNS, base.Web, base.App, base.DB}[i]
			paperNM.Tiers = append(paperNM.Tiers, availability.Tier{Name: role, N: n, LambdaEq: agg.LambdaEq, MuEq: agg.MuEq})
		}
	})
	if paperNMErr != nil {
		b.Fatal(paperNMErr)
	}
	return paperNM
}

var (
	paperNM     availability.NetworkModel
	paperNMErr  error
	paperNMOnce sync.Once
)

// solveFactored is the evaluator's availability path: one birth–death
// factor per tier, composed.
func solveFactored(nm availability.NetworkModel) (availability.NetworkSolution, error) {
	factors := make([]availability.TierFactor, len(nm.Tiers))
	for i, t := range nm.Tiers {
		f, err := availability.SolveTierFactor(t)
		if err != nil {
			return availability.NetworkSolution{}, err
		}
		factors[i] = f
	}
	return availability.ComposeNetwork(nm, factors, nil)
}

// BenchmarkSecurityExpanded measures one spec's security evaluation on
// the replica-expanded HARM — build, evaluate, patch, evaluate — the
// per-spec cost an evaluation paid before the factored path. Each
// replica count runs the heaviest ASP strategy that stays feasible on
// the expanded topology: the production exact-compromise configuration
// at replicas=4 (65536 host combinations), path-OR at replicas=8 (4608
// expanded paths; the exact computation is infeasible there).
func BenchmarkSecurityExpanded(b *testing.B) {
	db := paperdata.VulnDB()
	trees := paperdata.Trees(db)
	pol := patch.CriticalPolicy()
	keep := func(role string, l *attacktree.Leaf) bool {
		v, ok := db.ByID(l.Ref)
		return !ok || !pol.Selects(v)
	}
	for _, tc := range []struct {
		name string
		n    int
		opts harm.EvalOptions
	}{
		{"replicas=4", 4, harm.EvalOptions{Strategy: harm.ASPCompromise, ORRule: attacktree.ORNoisy}},
		{"replicas=8", 8, harm.EvalOptions{Strategy: harm.ASPIndependentPaths, ORRule: attacktree.ORNoisy}},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			spec := paperdata.Design{Name: "sec", DNS: tc.n, Web: tc.n, App: tc.n, DB: tc.n}.Spec()
			wantPaths := tc.n * tc.n * tc.n * (tc.n + 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := harm.Build(harm.BuildInput{Topology: paperdata.SpecTopology(spec), Trees: trees, TargetRoles: spec.TargetStacks()})
				if err != nil {
					b.Fatal(err)
				}
				before, err := h.Evaluate(tc.opts)
				if err != nil {
					b.Fatal(err)
				}
				patched, err := h.Patched(keep)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := patched.Evaluate(tc.opts); err != nil {
					b.Fatal(err)
				}
				if before.NoAP != wantPaths {
					b.Fatalf("paths = %d, want %d", before.NoAP, wantPaths)
				}
			}
		})
	}
}
