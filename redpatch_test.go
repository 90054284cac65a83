package redpatch

import (
	"context"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"redpatch/internal/mathx"
)

// A case study solves four server SRNs; share one across the facade
// tests and benchmarks.
var (
	studyOnce sync.Once
	study     *CaseStudy
	studyErr  error
	designs   []DesignReport
)

func caseStudy(t testing.TB) (*CaseStudy, []DesignReport) {
	studyOnce.Do(func() {
		study, studyErr = NewCaseStudy()
		if studyErr != nil {
			return
		}
		designs, studyErr = study.PaperDesigns()
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return study, designs
}

func TestBaseNetworkHeadlineNumbers(t *testing.T) {
	s, _ := caseStudy(t)
	base, err := s.BaseNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if base.Servers != 6 {
		t.Errorf("servers = %d, want 6", base.Servers)
	}
	if !mathx.AlmostEqual(base.COA, 0.99707, 1e-4) {
		t.Errorf("COA = %v, want ≈ 0.99707 (paper Table VI)", base.COA)
	}
	if !mathx.AlmostEqual(base.Before.AIM, 52.2, 1e-9) || !mathx.AlmostEqual(base.After.AIM, 42.2, 1e-9) {
		t.Errorf("AIM = %v -> %v, want 52.2 -> 42.2 (paper Table II)", base.Before.AIM, base.After.AIM)
	}
	if base.Before.NoEV != 26 || base.After.NoEV != 11 {
		t.Errorf("NoEV = %d -> %d, want 26 -> 11", base.Before.NoEV, base.After.NoEV)
	}
	if base.Before.NoAP != 8 || base.After.NoAP != 4 {
		t.Errorf("NoAP = %d -> %d, want 8 -> 4", base.Before.NoAP, base.After.NoAP)
	}
	if base.Description != "1 DNS + 2 WEB + 2 APP + 1 DB" {
		t.Errorf("Description = %q", base.Description)
	}
}

func TestPaperDesignOrder(t *testing.T) {
	_, ds := caseStudy(t)
	if len(ds) != 5 {
		t.Fatalf("designs = %d, want 5", len(ds))
	}
	want := []string{"D1", "D2", "D3", "D4", "D5"}
	for i, d := range ds {
		if d.Name != want[i] {
			t.Errorf("design %d = %s, want %s", i, d.Name, want[i])
		}
	}
}

func TestPatchRatesTable5(t *testing.T) {
	s, _ := caseStudy(t)
	rates := s.PatchRates()
	tests := []struct {
		role     string
		wantMTTR float64
		wantDown float64 // minutes
	}{
		{role: "dns", wantMTTR: 0.6667, wantDown: 40},
		{role: "web", wantMTTR: 0.5834, wantDown: 35},
		{role: "app", wantMTTR: 1.0001, wantDown: 60},
		{role: "db", wantMTTR: 0.9167, wantDown: 55},
	}
	for _, tt := range tests {
		r, ok := rates[tt.role]
		if !ok {
			t.Fatalf("missing rates for %s", tt.role)
		}
		if !mathx.AlmostEqual(r.MTTPHours, 720, 1e-9) {
			t.Errorf("%s MTTP = %v, want 720", tt.role, r.MTTPHours)
		}
		if !mathx.AlmostEqual(r.MTTRHours, tt.wantMTTR, 1e-4) {
			t.Errorf("%s MTTR = %v, want ≈ %v", tt.role, r.MTTRHours, tt.wantMTTR)
		}
		if r.DowntimeMinutes != tt.wantDown {
			t.Errorf("%s downtime = %v min, want %v", tt.role, r.DowntimeMinutes, tt.wantDown)
		}
	}
}

func TestDecisionRegions(t *testing.T) {
	_, ds := caseStudy(t)

	region1 := FilterScatter(ds, ScatterBounds{MaxASP: 0.2, MinCOA: 0.9962})
	if len(region1) != 2 || region1[0].Name != "D4" || region1[1].Name != "D5" {
		t.Errorf("Eq.3 region 1 = %v, want [D4 D5]", names(region1))
	}
	region2 := FilterScatter(ds, ScatterBounds{MaxASP: 0.1, MinCOA: 0.9961})
	if len(region2) != 1 || region2[0].Name != "D2" {
		t.Errorf("Eq.3 region 2 = %v, want [D2]", names(region2))
	}

	multi1 := FilterMulti(ds, MultiBounds{MaxASP: 0.2, MaxNoEV: 9, MaxNoAP: 2, MaxNoEP: 1, MinCOA: 0.9962})
	if len(multi1) != 1 || multi1[0].Name != "D4" {
		t.Errorf("Eq.4 region 1 = %v, want [D4]", names(multi1))
	}
	multi2 := FilterMulti(ds, MultiBounds{MaxASP: 0.1, MaxNoEV: 7, MaxNoAP: 1, MaxNoEP: 1, MinCOA: 0.9961})
	if len(multi2) != 1 || multi2[0].Name != "D2" {
		t.Errorf("Eq.4 region 2 = %v, want [D2]", names(multi2))
	}
}

func names(ds []DesignReport) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	return out
}

func TestPareto(t *testing.T) {
	_, ds := caseStudy(t)
	front := Pareto(ds)
	if len(front) == 0 {
		t.Fatal("empty front")
	}
	for _, d := range front {
		if d.Name == "D1" {
			t.Error("D1 is dominated by D2")
		}
	}
	for i := 1; i < len(front); i++ {
		if front[i-1].After.ASP > front[i].After.ASP {
			t.Error("front must be sorted by ASP")
		}
	}
}

// TestFrontIgnoresInputOrder: both fronts are a pure function of their
// members. A streamed sweep hands them reports in completion order, so
// an input and its reverse must give the same front even when points
// tie — every rolling fraction that rounds to the same patched count
// is a tie on both axes.
func TestFrontIgnoresInputOrder(t *testing.T) {
	s, ds := caseStudy(t)
	tied := append([]DesignReport(nil), ds...)
	for _, d := range ds {
		d.Name += "-twin"
		tied = append(tied, d)
	}
	var points []RolloutReport
	if _, err := s.RolloutSweepEach(context.Background(), ClassicSpec("", 1, 1, 1, 1),
		RolloutSchedule{Strategy: "rolling", Steps: 8},
		func(r RolloutReport) error { points = append(points, r); return nil }, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		front func(reverse bool) []string
	}{
		{"designs", func(reverse bool) []string {
			var names []string
			for _, d := range Pareto(reversed(tied, reverse)) {
				names = append(names, d.Name)
			}
			return names
		}},
		{"rollout", func(reverse bool) []string {
			var steps []string
			for _, p := range RolloutPareto(reversed(points, reverse)) {
				steps = append(steps, strconv.Itoa(p.Step))
			}
			return steps
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fwd, rev := tc.front(false), tc.front(true)
			if len(fwd) == 0 {
				t.Fatal("empty front")
			}
			if !reflect.DeepEqual(fwd, rev) {
				t.Errorf("front depends on input order: %v vs reversed %v", fwd, rev)
			}
		})
	}
}

// TestRolloutSweepEachRejectsHugeSteps: a rolling or canary schedule
// expands to one point per step, so a step count past the cap is an
// error before anything is expanded or evaluated — not a panic in make
// (rolling, where Steps+1 overflows) or a ramp that appends until
// memory runs out (canary). The cap itself still expands.
func TestRolloutSweepEachRejectsHugeSteps(t *testing.T) {
	s, _ := caseStudy(t)
	spec := ClassicSpec("", 1, 2, 2, 1)
	for _, sched := range []RolloutSchedule{
		{Strategy: "rolling", Steps: math.MaxInt},
		{Strategy: "canary", Steps: math.MaxInt},
		{Strategy: "canary", Steps: 1<<16 + 1, CanaryFraction: 0.2},
	} {
		n, err := s.RolloutSweepEach(context.Background(), spec, sched, func(RolloutReport) error {
			t.Fatalf("%+v evaluated a point", sched)
			return nil
		}, nil)
		if err == nil || n != 0 {
			t.Errorf("%+v: %d points, err %v; want an error", sched, n, err)
		}
	}
	points, err := RolloutSchedule{Strategy: "rolling", Steps: 1 << 16}.Points(len(spec.Tiers))
	if err != nil || len(points) != 1<<16+1 {
		t.Fatalf("rolling at the cap: %d points, err %v", len(points), err)
	}
}

func reversed[T any](xs []T, reverse bool) []T {
	out := slices.Clone(xs)
	if reverse {
		slices.Reverse(out)
	}
	return out
}

func TestEvaluateDesignValidation(t *testing.T) {
	s, _ := caseStudy(t)
	if _, err := s.EvaluateSpec(ClassicSpec("bad", 0, 1, 1, 1)); err == nil {
		t.Error("zero-replica tier should fail")
	}
}

func TestRankPatches(t *testing.T) {
	s, _ := caseStudy(t)
	ranked, err := s.RankPatchesSpec(ClassicSpec("base", 1, 2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	// The ranking covers the study's policy-selected set: under the
	// default critical policy, the 9 distinct CVEs with base score > 8.0.
	if len(ranked) != 9 {
		t.Fatalf("ranked = %d, want the 9 critical CVEs", len(ranked))
	}
	if ranked[0].CVE != "CVE-2016-3227" {
		t.Errorf("top candidate = %s, want CVE-2016-3227 (removes the DNS stepping stone)", ranked[0].CVE)
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i-1].RiskReduction < ranked[i].RiskReduction-1e-12 {
			t.Error("ranking must be sorted by descending risk reduction")
		}
	}
	if _, err := s.RankPatchesSpec(ClassicSpec("bad", 0, 1, 1, 1)); err == nil {
		t.Error("invalid design should fail")
	}

	// A PatchAll study ranks every distinct vulnerability — the policy
	// the ranking once ignored (it always ranked all 15 from the paper
	// defaults, whatever the study was configured to patch).
	all, err := NewCaseStudyWithConfig(Config{PatchAll: true})
	if err != nil {
		t.Fatal(err)
	}
	rankedAll, err := all.RankPatchesSpec(ClassicSpec("base", 1, 2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rankedAll) != 15 {
		t.Fatalf("patch-all ranked = %d, want 15 distinct CVEs (CVE-2016-4997 is shared)", len(rankedAll))
	}
	for _, r := range rankedAll {
		if r.CVE == "CVE-2016-4997" && len(r.Hosts) != 3 {
			t.Errorf("CVE-2016-4997 hosts = %v, want app1, app2, db1", r.Hosts)
		}
	}
}

// TestReplicaMonotonicity is an end-to-end property over the whole
// pipeline: adding one replica to any tier never decreases the service
// availability and never decreases the after-patch attack surface
// (ASP, NoEV). COA itself is deliberately NOT monotone — extra replicas
// add patch downtime as well as capacity — which is the paper's whole
// trade-off.
func TestReplicaMonotonicity(t *testing.T) {
	s, _ := caseStudy(t)
	baseCases := [][4]int{
		{1, 1, 1, 1},
		{1, 2, 2, 1},
		{2, 1, 2, 2},
	}
	for _, counts := range baseCases {
		base, err := s.EvaluateSpec(ClassicSpec("base", counts[0], counts[1], counts[2], counts[3]))
		if err != nil {
			t.Fatal(err)
		}
		for tier := 0; tier < 4; tier++ {
			grown := counts
			grown[tier]++
			next, err := s.EvaluateSpec(ClassicSpec("grown", grown[0], grown[1], grown[2], grown[3]))
			if err != nil {
				t.Fatal(err)
			}
			if next.ServiceAvailability < base.ServiceAvailability-1e-12 {
				t.Errorf("%v -> %v: service availability fell %v -> %v",
					counts, grown, base.ServiceAvailability, next.ServiceAvailability)
			}
			if next.After.ASP < base.After.ASP-1e-12 {
				t.Errorf("%v -> %v: after-patch ASP fell %v -> %v",
					counts, grown, base.After.ASP, next.After.ASP)
			}
			if next.After.NoEV < base.After.NoEV {
				t.Errorf("%v -> %v: after-patch NoEV fell %d -> %d",
					counts, grown, base.After.NoEV, next.After.NoEV)
			}
		}
	}
}

func TestCustomConfigPatchAll(t *testing.T) {
	s, err := NewCaseStudyWithConfig(Config{PatchAll: true})
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.EvaluateSpec(ClassicSpec("d1", 1, 1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if r.After.NoEV != 0 || r.After.ASP != 0 {
		t.Errorf("patch-all should clear the attack surface, got %+v", r.After)
	}
}

func TestCustomConfigInterval(t *testing.T) {
	weekly, err := NewCaseStudyWithConfig(Config{PatchIntervalHours: 168})
	if err != nil {
		t.Fatal(err)
	}
	rw, err := weekly.BaseNetwork()
	if err != nil {
		t.Fatal(err)
	}
	s, _ := caseStudy(t)
	rm, err := s.BaseNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if rw.COA >= rm.COA {
		t.Errorf("weekly patching should cost more availability: %v vs %v", rw.COA, rm.COA)
	}
	rates := weekly.PatchRates()
	if !mathx.AlmostEqual(rates["dns"].MTTPHours, 168, 1e-9) {
		t.Errorf("weekly MTTP = %v, want 168", rates["dns"].MTTPHours)
	}
}

// fullSweep requests every classic design with 1..maxPerTier replicas
// per tier.
func fullSweep(maxPerTier int) SpecSweepRequest {
	tier := func(role string) TierSweep { return TierSweep{Role: role, Min: 1, Max: maxPerTier} }
	return SpecSweepRequest{Tiers: []TierSweep{tier("dns"), tier("web"), tier("app"), tier("db")}}
}

// classicReports is the serial reference: every classic design with
// 1..maxPerTier replicas per tier, evaluated one at a time, in name
// order.
func classicReports(t *testing.T, s *CaseStudy, maxPerTier int) []DesignReport {
	t.Helper()
	var out []DesignReport
	for dns := 1; dns <= maxPerTier; dns++ {
		for web := 1; web <= maxPerTier; web++ {
			for app := 1; app <= maxPerTier; app++ {
				for db := 1; db <= maxPerTier; db++ {
					r, err := s.EvaluateSpec(ClassicSpec("", dns, web, app, db))
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, r)
				}
			}
		}
	}
	return out
}

// sweepSorted streams req through SweepSpecEach and returns the total
// and the kept reports sorted by name (the stream delivers them in
// completion order).
func sweepSorted(t *testing.T, s *CaseStudy, req SpecSweepRequest) (int, []DesignReport) {
	t.Helper()
	var reports []DesignReport
	total, err := s.SweepSpecEach(context.Background(), req, func(r DesignReport) error {
		reports = append(reports, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(reports, func(a, b DesignReport) int { return strings.Compare(a.Name, b.Name) })
	return total, reports
}

// TestSweepMatchesEnumerate pins the streamed sweep, and the Pareto
// front taken over it, to serial evaluation of the same designs.
func TestSweepMatchesEnumerate(t *testing.T) {
	s, _ := caseStudy(t)
	want := classicReports(t, s, 2)
	total, got := sweepSorted(t, s, fullSweep(2))
	if total != 16 {
		t.Fatalf("total = %d, want 16", total)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sweep reports differ from serial evaluation")
	}
	if !reflect.DeepEqual(Pareto(got), Pareto(want)) {
		t.Fatal("Pareto front of the sweep differs from that of serial evaluation")
	}
}

// TestSweepBoundsAndStats checks incremental bound filtering plus the
// cache counters behind it.
func TestSweepBoundsAndStats(t *testing.T) {
	s, _ := caseStudy(t)
	req := fullSweep(2)
	req.Scatter = &ScatterBounds{MaxASP: 0.2, MinCOA: 0.9962}
	_, kept := sweepSorted(t, s, req)
	if want := FilterScatter(classicReports(t, s, 2), *req.Scatter); !reflect.DeepEqual(kept, want) {
		t.Fatalf("bounded sweep kept %d, want %d", len(kept), len(want))
	}

	before := s.EngineStats()
	if _, err := s.SweepSpecEach(context.Background(), req, func(DesignReport) error { return nil }); err != nil {
		t.Fatal(err)
	}
	after := s.EngineStats()
	if after.Solves != before.Solves {
		t.Fatalf("repeat sweep performed %d new solves", after.Solves-before.Solves)
	}
	if after.Hits < before.Hits+16 {
		t.Fatalf("repeat sweep hit the cache %d times, want >= 16", after.Hits-before.Hits)
	}
}

// TestSweepEachStreams checks the streaming surface.
func TestSweepEachStreams(t *testing.T) {
	s, _ := caseStudy(t)
	seen := make(map[string]bool)
	total, err := s.SweepSpecEach(context.Background(), fullSweep(2), func(r DesignReport) error {
		seen[r.Name] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 16 || len(seen) != 16 {
		t.Fatalf("total = %d, streamed = %d, want 16/16", total, len(seen))
	}
}

// TestSweepRejectsInvalidRange checks request validation.
func TestSweepRejectsInvalidRange(t *testing.T) {
	s, _ := caseStudy(t)
	req := fullSweep(2)
	req.Tiers[0].Min, req.Tiers[0].Max = 3, 1
	if _, err := s.SweepSpecEach(context.Background(), req, func(DesignReport) error { return nil }); err == nil {
		t.Fatal("inverted range accepted")
	}
}

// TestHeterogeneousFacadeSweep drives the §V variant deployment through
// the public facade: sweeping the web tier across both stacks yields a
// non-empty Pareto front, and the variant designs carry distinct names,
// descriptions and metrics.
func TestHeterogeneousFacadeSweep(t *testing.T) {
	s, _ := caseStudy(t)
	total, reports := sweepSorted(t, s, SpecSweepRequest{Tiers: []TierSweep{
		{Role: "dns", Min: 1, Max: 1},
		{Role: "web", Min: 2, Max: 2, Variants: []string{"", "webalt"}},
		{Role: "app", Min: 1, Max: 1},
		{Role: "db", Min: 1, Max: 1},
	}})
	if total != 2 || len(reports) != 2 {
		t.Fatalf("total = %d, reports = %d, want 2", total, len(reports))
	}
	if len(Pareto(reports)) == 0 {
		t.Fatal("empty Pareto front")
	}
	apache, nginx := reports[0], reports[1]
	if apache.Name != "1d2w1a1b" {
		t.Errorf("homogeneous name = %q", apache.Name)
	}
	if nginx.Name != "1dns-2web/webalt-1app-1db" {
		t.Errorf("variant name = %q", nginx.Name)
	}
	if nginx.Description != "1 DNS + 2 WEB/WEBALT + 1 APP + 1 DB" {
		t.Errorf("variant description = %q", nginx.Description)
	}
	if apache.After.ASP == nginx.After.ASP && apache.After.NoEV == nginx.After.NoEV {
		t.Error("variant stack evaluated identically to the base stack")
	}
}

// TestMixedTierSpec evaluates one heterogeneous logical tier (Apache +
// Nginx replicas side by side) through the facade — the deployment shape
// the example program builds by hand.
func TestMixedTierSpec(t *testing.T) {
	s, _ := caseStudy(t)
	hetero, err := s.EvaluateSpec(DesignSpec{Tiers: []TierSpec{
		{Role: "dns", Replicas: 1},
		{Role: "web", Replicas: 1},
		{Role: "web", Replicas: 1, Variant: "webalt"},
		{Role: "app", Replicas: 1},
		{Role: "db", Replicas: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	homog, err := s.EvaluateSpec(ClassicSpec("", 1, 2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if hetero.Servers != 5 {
		t.Errorf("servers = %d, want 5", hetero.Servers)
	}
	// Mixed stacks share no vulnerability, so the surviving exploit
	// chain is strictly harder than the homogeneous pair's.
	if hetero.After.ASP >= homog.After.ASP {
		t.Errorf("mixed-tier after-patch ASP = %v, want below homogeneous %v",
			hetero.After.ASP, homog.After.ASP)
	}
	if hetero.COA <= 0 || hetero.COA > 1 {
		t.Errorf("implausible COA %v", hetero.COA)
	}
	if hetero.Name != "1dns-1web-1web/webalt-1app-1db" {
		t.Errorf("canonical name = %q", hetero.Name)
	}
}

// TestSpecValidationAtFacade pins facade-level validation failures.
func TestSpecValidationAtFacade(t *testing.T) {
	s, _ := caseStudy(t)
	for name, spec := range map[string]DesignSpec{
		"no tiers":      {},
		"zero replicas": {Tiers: []TierSpec{{Role: "web", Replicas: 0}}},
		"unknown stack": {Tiers: []TierSpec{{Role: "mainframe", Replicas: 1}}},
		"unknown variant": {Tiers: []TierSpec{
			{Role: "web", Replicas: 1, Variant: "iis"}}},
	} {
		if _, err := s.EvaluateSpec(spec); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestCachedReportAllocations pins what a whole warm evaluate costs in
// the facade — the lookup that both decides the admission bypass and
// serves the request: one spec conversion, one string holding the
// default name and the description, a memo read with the key in a stack
// buffer, and the report's spec. It must equal
// what EvaluateSpec serves, and a miss must move no counter.
func TestCachedReportAllocations(t *testing.T) {
	s, _ := caseStudy(t)
	ctx := context.Background()
	st := s.EngineStats()
	if _, ok := s.CachedReport(ctx, ClassicSpec("", 9, 9, 9, 9)); ok {
		t.Fatal("CachedReport served a design never evaluated")
	}
	if got := s.EngineStats(); got != st {
		t.Fatalf("a missed lookup moved the counters: %+v, was %+v", got, st)
	}
	for _, name := range []string{"", "named"} {
		spec := ClassicSpec(name, 1, 2, 2, 1)
		want, err := s.EvaluateSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := s.CachedReport(ctx, spec)
		if !ok {
			t.Fatalf("CachedReport(%q) missed after EvaluateSpec", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("CachedReport(%q) = %+v, EvaluateSpec served %+v", name, got, want)
		}
		hits := s.EngineStats().Hits
		s.CachedReport(ctx, spec)
		if got := s.EngineStats().Hits; got != hits+1 {
			t.Errorf("a warm lookup counted %d hits, want 1", got-hits)
		}
		if got := testing.AllocsPerRun(100, func() { s.CachedReport(ctx, spec) }); got > 3 {
			t.Errorf("warm CachedReport(%q) = %v allocs, want at most 3", name, got)
		}
	}
}
