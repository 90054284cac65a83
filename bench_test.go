package redpatch

// Benchmark harness: one benchmark per table and figure of the paper
// (experiments_test.go pins the same artefacts as its E tests), plus
// ablation benches for the modelling choices that have alternatives
// (ASP aggregation strategy, factored closed form vs generated SRN
// availability). Each benchmark regenerates its artefact per iteration,
// so ns/op measures the cost of a full reproduction of that table or
// figure.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"redpatch/internal/admission"
	"redpatch/internal/attacktree"
	"redpatch/internal/availability"
	"redpatch/internal/engine"
	"redpatch/internal/harm"
	"redpatch/internal/oracle"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
	"redpatch/internal/redundancy"
	"redpatch/internal/srn"
	"redpatch/internal/trace"
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
	top, err := paperdata.Topology(paperdata.BaseDesign())
	if err != nil {
		b.Fatal(err)
	}
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
	top, err := paperdata.Topology(paperdata.BaseDesign())
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkTable6COA solves the upper-layer network model of the base
// design and evaluates the Table VI reward.
func BenchmarkTable6COA(b *testing.B) {
	nm := paperNetworkModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := solveFactored(nm)
		if err != nil {
			b.Fatal(err)
		}
		if sol.COA < 0.99 {
			b.Fatal("implausible COA")
		}
	}
}

// BenchmarkFigure6Scatter regenerates both Fig. 6 panels: five designs
// evaluated on (ASP, COA) plus the Eq. 3 regions.
func BenchmarkFigure6Scatter(b *testing.B) {
	s, ds := caseStudy(b)
	_ = s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1 := FilterScatter(ds, ScatterBounds{MaxASP: 0.2, MinCOA: 0.9962})
		r2 := FilterScatter(ds, ScatterBounds{MaxASP: 0.1, MinCOA: 0.9961})
		if len(r1) != 2 || len(r2) != 1 {
			b.Fatal("wrong regions")
		}
	}
}

// BenchmarkFigure6DesignEvaluation measures the full five-design
// evaluation behind Fig. 6 (security models + availability per design).
func BenchmarkFigure6DesignEvaluation(b *testing.B) {
	s, _ := caseStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.PaperDesigns(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7Radar regenerates both Fig. 7 panels (six metrics per
// design) plus the Eq. 4 regions.
func BenchmarkFigure7Radar(b *testing.B) {
	_, ds := caseStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1 := FilterMulti(ds, MultiBounds{MaxASP: 0.2, MaxNoEV: 9, MaxNoAP: 2, MaxNoEP: 1, MinCOA: 0.9962})
		r2 := FilterMulti(ds, MultiBounds{MaxASP: 0.1, MaxNoEV: 7, MaxNoAP: 1, MaxNoEP: 1, MinCOA: 0.9961})
		if len(r1) != 1 || len(r2) != 1 {
			b.Fatal("wrong regions")
		}
	}
}

// BenchmarkAblationASPStrategies compares the three ASP aggregation
// strategies on the patched base network.
func BenchmarkAblationASPStrategies(b *testing.B) {
	db := paperdata.VulnDB()
	top, err := paperdata.Topology(paperdata.BaseDesign())
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkAblationClosedFormCOA measures the factored closed-form COA,
// the solve that replaces the generated SRN (BenchmarkScalabilitySRNOracle)
// in sweeps.
func BenchmarkAblationClosedFormCOA(b *testing.B) {
	nm := paperNetworkModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveCOA(nm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionPatchSchedules sweeps the patch interval (weekly,
// monthly, quarterly) over the base network (§V extension).
func BenchmarkExtensionPatchSchedules(b *testing.B) {
	nm := paperNetworkModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prev := 0.0
		for _, interval := range []float64{168, 720, 2160} {
			variant := availability.NetworkModel{Tiers: append([]availability.Tier(nil), nm.Tiers...)}
			for j := range variant.Tiers {
				variant.Tiers[j].LambdaEq = 1 / interval
			}
			coa, err := solveCOA(variant)
			if err != nil {
				b.Fatal(err)
			}
			if coa < prev {
				b.Fatal("COA must grow with the interval")
			}
			prev = coa
		}
	}
}

// BenchmarkExtensionDesignSpace sweeps the 16-design space (1..2 replicas
// per tier) with closed-form COA — the §V "larger systems" extension.
func BenchmarkExtensionDesignSpace(b *testing.B) {
	nm := paperNetworkModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		for dns := 1; dns <= 2; dns++ {
			for web := 1; web <= 2; web++ {
				for app := 1; app <= 2; app++ {
					for db := 1; db <= 2; db++ {
						variant := availability.NetworkModel{Tiers: append([]availability.Tier(nil), nm.Tiers...)}
						variant.Tiers[0].N = dns
						variant.Tiers[1].N = web
						variant.Tiers[2].N = app
						variant.Tiers[3].N = db
						if _, err := solveCOA(variant); err != nil {
							b.Fatal(err)
						}
						count++
					}
				}
			}
		}
		if count != 16 {
			b.Fatal("wrong design count")
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
			top, err := paperdata.Topology(paperdata.Design{Name: "scale", DNS: n, Web: n, App: n, DB: n})
			if err != nil {
				b.Fatal(err)
			}
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

// BenchmarkScalabilitySRN measures upper-layer availability solving as
// replica counts grow: the state space spans (n+1)^4 states. It measures
// the production path, the factored per-tier solver; the generated-SRN
// elimination it replaced is BenchmarkScalabilitySRNOracle.
func BenchmarkScalabilitySRN(b *testing.B) {
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
				sol, err := solveFactored(nm)
				if err != nil {
					b.Fatal(err)
				}
				want := (n + 1) * (n + 1) * (n + 1) * (n + 1)
				if sol.States != want {
					b.Fatalf("states = %d, want %d", sol.States, want)
				}
				if !sol.Factored {
					b.Fatal("model not solved by the factored path")
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
	top, err := paperdata.Topology(paperdata.BaseDesign())
	if err != nil {
		b.Fatal(err)
	}
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
	return availability.ComposeNetwork(nm, factors)
}

// solveCOA is the COA of solveFactored.
func solveCOA(nm availability.NetworkModel) (float64, error) {
	sol, err := solveFactored(nm)
	return sol.COA, err
}

// discard is the sweep callback of benchmarks that time the sweep, not
// what it keeps.
func discard(engine.Report) error { return nil }

// fullSpace sweeps every classic design with 1..max replicas per tier.
func fullSpace(max int) engine.SweepSpec {
	var s engine.SweepSpec
	for _, role := range paperdata.Roles() {
		s.Tiers = append(s.Tiers, engine.TierSweep{Role: role, Min: 1, Max: max})
	}
	return s
}

// patchedFactored builds the fully patched factored model of a spec as
// the evaluator's security memo does: the all-patched rollout quotient
// with the policy-pruned trees of its classes.
func patchedFactored(spec paperdata.DesignSpec, trees map[string]*attacktree.Tree, keep func(string, *attacktree.Leaf) bool) (*harm.FactoredHARM, paperdata.RolloutQuotient, error) {
	full := make([]int, len(spec.Tiers))
	for i, t := range spec.Tiers {
		full[i] = t.Replicas
	}
	rq, err := paperdata.SpecRolloutQuotient(spec, full)
	if err != nil {
		return nil, rq, err
	}
	top, err := paperdata.SpecTopology(rq.Quotient)
	if err != nil {
		return nil, rq, err
	}
	f, err := harm.BuildFactoredRollout(harm.BuildInput{Topology: top, Trees: trees, TargetRoles: rq.Quotient.TargetStacks()}, rq.PatchedHosts, keep)
	return f, rq, err
}

// securityBenchCases are the replica counts the security benchmarks run
// at, each with the heaviest ASP strategy that stays feasible on the
// expanded topology: the production exact-compromise configuration at
// replicas=4 (65536 host combinations), path-OR at replicas=8 (4608
// expanded paths; the exact computation is infeasible on the expanded
// model there, while the quotient path handles it trivially).
func securityBenchCases() []struct {
	name string
	n    int
	opts harm.EvalOptions
} {
	return []struct {
		name string
		n    int
		opts harm.EvalOptions
	}{
		{"replicas=4", 4, harm.EvalOptions{Strategy: harm.ASPCompromise, ORRule: attacktree.ORNoisy}},
		{"replicas=8", 8, harm.EvalOptions{Strategy: harm.ASPIndependentPaths, ORRule: attacktree.ORNoisy}},
	}
}

// securityKeep is the critical-policy patch transformation used by both
// security benchmarks.
func securityKeep(b *testing.B) func(string, *attacktree.Leaf) bool {
	b.Helper()
	db := paperdata.VulnDB()
	pol := patch.CriticalPolicy()
	return func(role string, l *attacktree.Leaf) bool {
		v, ok := db.ByID(l.Ref)
		return !ok || !pol.Selects(v)
	}
}

// BenchmarkSecurityExpanded measures one spec's security evaluation on
// the replica-expanded HARM — build, evaluate, patch, evaluate — the
// per-spec cost an evaluation paid before the factored path.
func BenchmarkSecurityExpanded(b *testing.B) {
	trees := paperdata.Trees(paperdata.VulnDB())
	keep := securityKeep(b)
	for _, tc := range securityBenchCases() {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			spec := paperdata.Design{Name: "sec", DNS: tc.n, Web: tc.n, App: tc.n, DB: tc.n}.Spec()
			wantPaths := tc.n * tc.n * tc.n * (tc.n + 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				top, err := paperdata.SpecTopology(spec)
				if err != nil {
					b.Fatal(err)
				}
				h, err := harm.Build(harm.BuildInput{Topology: top, Trees: trees, TargetRoles: spec.TargetStacks()})
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

// BenchmarkSecurityQuotient measures the same per-spec security
// evaluation on the factored (quotient) model, built cold per iteration:
// quotient, topology, factored HARM, patch transformation, both
// compilations and both closed-form metric evaluations. The memoized
// path the sweeps take (BenchmarkSweepSecurityFactored) amortizes
// everything but the two Evaluate calls.
func BenchmarkSecurityQuotient(b *testing.B) {
	trees := paperdata.Trees(paperdata.VulnDB())
	keep := securityKeep(b)
	for _, tc := range securityBenchCases() {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			spec := paperdata.Design{Name: "sec", DNS: tc.n, Web: tc.n, App: tc.n, DB: tc.n}.Spec()
			wantPaths := tc.n * tc.n * tc.n * (tc.n + 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rq, err := paperdata.SpecRolloutQuotient(spec, make([]int, len(spec.Tiers)))
				if err != nil {
					b.Fatal(err)
				}
				top, err := paperdata.SpecTopology(rq.Quotient)
				if err != nil {
					b.Fatal(err)
				}
				f, err := harm.BuildFactored(harm.BuildInput{Topology: top, Trees: trees, TargetRoles: rq.Quotient.TargetStacks()})
				if err != nil {
					b.Fatal(err)
				}
				c, err := f.Compile(rq.Hosts, tc.opts)
				if err != nil {
					b.Fatal(err)
				}
				before, err := c.Evaluate(rq.Counts)
				if err != nil {
					b.Fatal(err)
				}
				patched, prq, err := patchedFactored(spec, trees, keep)
				if err != nil {
					b.Fatal(err)
				}
				pc, err := patched.Compile(prq.Hosts, tc.opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pc.Evaluate(prq.Counts); err != nil {
					b.Fatal(err)
				}
				if before.NoAP != wantPaths {
					b.Fatalf("paths = %d, want %d", before.NoAP, wantPaths)
				}
			}
		})
	}
}

// BenchmarkSecurityQuotientMemo measures the steady-state per-spec
// security evaluation — both compiled models already memoized (as in
// every sweep past the first spec of a variant structure), leaving only
// the two closed-form Evaluate calls. This is the security arithmetic
// an evaluation pays per design; compare BenchmarkSecurityExpanded for
// what it paid before the factored path.
func BenchmarkSecurityQuotientMemo(b *testing.B) {
	trees := paperdata.Trees(paperdata.VulnDB())
	keep := securityKeep(b)
	for _, tc := range securityBenchCases() {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			spec := paperdata.Design{Name: "sec", DNS: tc.n, Web: tc.n, App: tc.n, DB: tc.n}.Spec()
			rq, err := paperdata.SpecRolloutQuotient(spec, make([]int, len(spec.Tiers)))
			if err != nil {
				b.Fatal(err)
			}
			top, err := paperdata.SpecTopology(rq.Quotient)
			if err != nil {
				b.Fatal(err)
			}
			f, err := harm.BuildFactored(harm.BuildInput{Topology: top, Trees: trees, TargetRoles: rq.Quotient.TargetStacks()})
			if err != nil {
				b.Fatal(err)
			}
			c, err := f.Compile(rq.Hosts, tc.opts)
			if err != nil {
				b.Fatal(err)
			}
			patched, prq, err := patchedFactored(spec, trees, keep)
			if err != nil {
				b.Fatal(err)
			}
			pc, err := patched.Compile(prq.Hosts, tc.opts)
			if err != nil {
				b.Fatal(err)
			}
			wantPaths := tc.n * tc.n * tc.n * (tc.n + 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before, err := c.Evaluate(rq.Counts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pc.Evaluate(prq.Counts); err != nil {
					b.Fatal(err)
				}
				if before.NoAP != wantPaths {
					b.Fatalf("paths = %d, want %d", before.NoAP, wantPaths)
				}
			}
		})
	}
}

// BenchmarkSweepSecurityFactored is the sweep-scale security headline:
// the 81-design 3^4 replica space evaluated fully cold — fresh evaluator
// and engine per iteration — where the security memo holds the whole
// space to two factored HARM builds (all 81 designs share one variant
// structure, whose unpatched and fully patched endpoints are the two
// models).
func BenchmarkSweepSecurityFactored(b *testing.B) {
	spec := fullSpace(3)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := redundancy.NewEvaluator(redundancy.Options{})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := engine.New(ev, engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		total, err := eng.Sweep(ctx, spec, discard, nil)
		if err != nil {
			b.Fatal(err)
		}
		if total != 81 {
			b.Fatalf("total = %d, want 81", total)
		}
		st := ev.SolverStats()
		if st.SecuritySolves != 2 || st.SecurityFactored != 81 {
			b.Fatalf("security solves/factored = %d/%d, want 2/81",
				st.SecuritySolves, st.SecurityFactored)
		}
	}
}

// BenchmarkSweepSerial is the pre-engine baseline: the 16-design space
// (1..2 replicas per tier) evaluated by a serial loop over the bare
// evaluator, no caching, one core.
func BenchmarkSweepSerial(b *testing.B) {
	ev, err := redundancy.NewEvaluator(redundancy.Options{})
	if err != nil {
		b.Fatal(err)
	}
	designs := fullSpace(2).Designs()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range designs {
			if _, err := ev.EvaluateSpecContext(ctx, d); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepParallel runs the same 16-design space through the
// engine's worker pool with a cold cache per iteration, so ns/op isolates
// the fan-out gain over BenchmarkSweepSerial (expect ~no gain on one
// core, near-linear scaling on multi-core).
func BenchmarkSweepParallel(b *testing.B) {
	ev, err := redundancy.NewEvaluator(redundancy.Options{})
	if err != nil {
		b.Fatal(err)
	}
	spec := fullSpace(2)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := engine.New(ev, engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Sweep(ctx, spec, discard, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCold81 is the sweep-scale headline: the 81-design 3^4
// replica space evaluated cold (fresh engine and evaluator memo per
// iteration). The factored path holds the availability work to one tier
// solve per distinct (role, replicas) pair — 12 for this space.
func BenchmarkSweepCold81(b *testing.B) {
	ev, err := redundancy.NewEvaluator(redundancy.Options{})
	if err != nil {
		b.Fatal(err)
	}
	spec := fullSpace(3)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := engine.New(ev, engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		total, err := eng.Sweep(ctx, spec, discard, nil)
		if err != nil {
			b.Fatal(err)
		}
		if total != 81 {
			b.Fatalf("total = %d, want 81", total)
		}
	}
}

// BenchmarkTraceOverhead prices the span tracer against the cold
// 81-design sweep. "off" carries no tracer in the context — the
// disabled Start path, which must stay allocation-free — while "on"
// records the full span tree (sweep root, per-design evaluate spans,
// solver children) into a bounded ring, exactly what redpatchd does per
// request. The CI bench gate holds "on" within a few percent of "off".
func BenchmarkTraceOverhead(b *testing.B) {
	run := func(b *testing.B, ctx context.Context) {
		ev, err := redundancy.NewEvaluator(redundancy.Options{})
		if err != nil {
			b.Fatal(err)
		}
		spec := fullSpace(3)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng, err := engine.New(ev, engine.Options{})
			if err != nil {
				b.Fatal(err)
			}
			total, err := eng.Sweep(ctx, spec, discard, nil)
			if err != nil {
				b.Fatal(err)
			}
			if total != 81 {
				b.Fatalf("total = %d, want 81", total)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, context.Background()) })
	b.Run("on", func(b *testing.B) {
		run(b, trace.WithTracer(context.Background(), trace.New(trace.Options{})))
	})
}

// BenchmarkSweepCached measures the repeat-sweep path: every design is
// served from the engine's memo cache, no model is re-solved.
func BenchmarkSweepCached(b *testing.B) {
	ev, err := redundancy.NewEvaluator(redundancy.Options{})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := engine.New(ev, engine.Options{})
	if err != nil {
		b.Fatal(err)
	}
	spec := fullSpace(2)
	ctx := context.Background()
	if _, err := eng.Sweep(ctx, spec, discard, nil); err != nil { // prime the cache
		b.Fatal(err)
	}
	solvesBefore := eng.Stats().Solves
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Sweep(ctx, spec, discard, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if s := eng.Stats().Solves; s != solvesBefore {
		b.Fatalf("cached sweep re-solved %d designs", s-solvesBefore)
	}
}

// BenchmarkRolloutQuotient measures one mixed-version rollout point's
// security evaluation built fully cold: sub-classed rollout quotient,
// topology, factored HARM with per-instance pruned trees, and the
// compiled closed-form metric evaluation. This is the model-build cost
// the evaluator's security memo amortizes across a whole schedule.
func BenchmarkRolloutQuotient(b *testing.B) {
	trees := paperdata.Trees(paperdata.VulnDB())
	keep := securityKeep(b)
	spec := paperdata.Design{Name: "rq", DNS: 2, Web: 4, App: 4, DB: 2}.Spec()
	patched := []int{1, 2, 2, 1}
	opts := harm.EvalOptions{Strategy: harm.ASPCompromise, ORRule: attacktree.ORNoisy}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rq, err := paperdata.SpecRolloutQuotient(spec, patched)
		if err != nil {
			b.Fatal(err)
		}
		top, err := paperdata.SpecTopology(rq.Quotient)
		if err != nil {
			b.Fatal(err)
		}
		f, err := harm.BuildFactoredRollout(harm.BuildInput{
			Topology:    top,
			Trees:       trees,
			TargetRoles: rq.Quotient.TargetStacks(),
		}, rq.PatchedHosts, keep)
		if err != nil {
			b.Fatal(err)
		}
		c, err := f.Compile(rq.Hosts, opts)
		if err != nil {
			b.Fatal(err)
		}
		m, err := c.Evaluate(rq.Counts)
		if err != nil {
			b.Fatal(err)
		}
		if m.NoAP == 0 {
			b.Fatal("no attack paths")
		}
	}
}

// BenchmarkRolloutSweep is the rollout headline: a 8-wave rolling
// schedule over the 2-3-2-2 design swept through the engine fully cold —
// fresh evaluator and engine per iteration, so ns/op covers every
// mixed-version model build, the partial tier factors and the NDJSON-
// ready per-point results, exactly what one first-time
// POST /api/v2/rollout/sweep pays.
func BenchmarkRolloutSweep(b *testing.B) {
	spec := paperdata.Design{Name: "rs", DNS: 2, Web: 3, App: 2, DB: 2}.Spec()
	sched := redundancy.RolloutSchedule{Strategy: redundancy.RolloutRolling, Steps: 8}
	points, err := sched.Points(len(spec.Tiers))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := redundancy.NewEvaluator(redundancy.Options{})
		if err != nil {
			b.Fatal(err)
		}
		eng, err := engine.New(ev, engine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		err = eng.RolloutSweep(ctx, spec, points, func(engine.RolloutReport) error {
			n++
			return nil
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if n != len(points) {
			b.Fatalf("streamed %d points, want %d", n, len(points))
		}
	}
}

// BenchmarkAdmissionOverhead prices the admission limiter against the
// warm evaluate path — the cheapest request redpatchd serves, so the
// least favourable denominator for the limiter's fixed cost. "off" is
// the bare memoized evaluation; "on" adds an uncontended
// Acquire/release pair, the fast path every admitted request takes.
// The CI bench gate holds both within the shared tolerance, keeping
// the resilience layer honest about its per-request overhead.
func BenchmarkAdmissionOverhead(b *testing.B) {
	study, err := NewCaseStudy()
	if err != nil {
		b.Fatal(err)
	}
	spec := ClassicSpec("admission-bench", 1, 2, 2, 1)
	if _, err := study.EvaluateSpec(spec); err != nil { // prime the memo cache
		b.Fatal(err)
	}
	run := func(b *testing.B, lim *admission.Limiter) {
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if lim != nil {
				release, err := lim.Acquire(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := study.EvaluateSpecCtx(ctx, spec); err != nil {
					b.Fatal(err)
				}
				release()
				continue
			}
			if _, err := study.EvaluateSpecCtx(ctx, spec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) {
		run(b, admission.New("evaluate", admission.Options{
			Concurrency: 64,
			Queue:       256,
			MaxWait:     10 * time.Second,
		}))
	})
}
