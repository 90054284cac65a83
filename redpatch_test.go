package redpatch

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"redpatch/internal/mathx"
	"redpatch/internal/trace"
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

// TestTierOrderIsTheAttackChain pins a non-relation: tiers chain in
// spec order, and the attacker enters at every DMZ tier, so swapping
// two tiers of different roles keeps the availability numbers bit for
// bit but changes the security ones. After the patch the dns server
// has no exploit left, while each web replica keeps one. With dns
// first, web reaches app directly: two paths, one per web replica,
// survive the patch. With web first, every path passes the dns server,
// so none does.
func TestTierOrderIsTheAttackChain(t *testing.T) {
	s, _ := caseStudy(t)
	chain := func(tiers ...TierSpec) DesignReport {
		t.Helper()
		r, err := s.EvaluateSpec(DesignSpec{Tiers: tiers})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	dns := TierSpec{Role: "dns", Replicas: 1}
	web := TierSpec{Role: "web", Replicas: 2}
	app := TierSpec{Role: "app", Replicas: 1}
	db := TierSpec{Role: "db", Replicas: 1}
	dnsFirst := chain(dns, web, app, db)
	webFirst := chain(web, dns, app, db)
	if dnsFirst.COA != webFirst.COA || dnsFirst.ServiceAvailability != webFirst.ServiceAvailability {
		t.Errorf("tier order moved availability: COA %v vs %v, service %v vs %v",
			dnsFirst.COA, webFirst.COA, dnsFirst.ServiceAvailability, webFirst.ServiceAvailability)
	}
	if !mathx.AlmostEqual(dnsFirst.COA, 0.996097378615136, 1e-15) {
		t.Errorf("COA = %.15f, want 0.996097378615136", dnsFirst.COA)
	}
	if a := dnsFirst.After; !mathx.AlmostEqual(a.AIM, 42.2, 1e-12) || !mathx.AlmostEqual(a.ASP, 0.145604773314, 1e-12) || a.NoAP != 2 {
		t.Errorf("dns first: after-patch AIM/ASP/NoAP = %v/%v/%d, want 42.2/0.145604773314/2", a.AIM, a.ASP, a.NoAP)
	}
	if a := webFirst.After; a.AIM != 0 || a.ASP != 0 || a.NoAP != 0 {
		t.Errorf("web first: after-patch AIM/ASP/NoAP = %v/%v/%d, want 0/0/0", a.AIM, a.ASP, a.NoAP)
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
// cache counters behind it. Under each of the paper's Eq. 3 and Eq. 4
// regions, as cmd/paper-repro passes them to FilterScatter and
// FilterMulti, the sweep keeps the designs the filter keeps.
func TestSweepBoundsAndStats(t *testing.T) {
	s, _ := caseStudy(t)
	all := classicReports(t, s, 2)
	for _, b := range []struct {
		scatter *ScatterBounds
		multi   *MultiBounds
	}{
		{scatter: &ScatterBounds{MaxASP: 0.2, MinCOA: 0.9962}},
		{scatter: &ScatterBounds{MaxASP: 0.1, MinCOA: 0.9961}},
		{multi: &MultiBounds{MaxASP: 0.2, MaxNoEV: 9, MaxNoAP: 2, MaxNoEP: 1, MinCOA: 0.9962}},
		{multi: &MultiBounds{MaxASP: 0.1, MaxNoEV: 7, MaxNoAP: 1, MaxNoEP: 1, MinCOA: 0.9961}},
	} {
		req := fullSweep(2)
		req.Scatter, req.Multi = b.scatter, b.multi
		_, kept := sweepSorted(t, s, req)
		var want []DesignReport
		if b.scatter != nil {
			want = FilterScatter(all, *b.scatter)
		} else {
			want = FilterMulti(all, *b.multi)
		}
		if len(want) == 0 || len(want) == len(all) || !reflect.DeepEqual(kept, want) {
			t.Fatalf("under %+v%+v the bounded sweep kept %d of %d, the filter %d; want the same strict subset",
				b.scatter, b.multi, len(kept), len(all), len(want))
		}
	}

	req := fullSweep(2)
	req.Scatter = &ScatterBounds{MaxASP: 0.2, MinCOA: 0.9962}

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
// the facade — the lookup that validates the spec, decides the
// admission bypass and serves the request: one string holding the
// default name and the description, and a memo read with the key in a
// stack buffer. The report carries the caller's spec, never a copy. It
// must equal what EvaluateSpec serves; a cold lookup must move no
// counter, and an invalid spec is Validate's error.
func TestCachedReportAllocations(t *testing.T) {
	s, _ := caseStudy(t)
	ctx := context.Background()
	st := s.EngineStats()
	if _, cold, err := s.CachedReport(ctx, ClassicSpec("", 9, 9, 9, 9)); err != nil || !cold.Cold() {
		t.Fatalf("CachedReport of a design never evaluated = cold %v, %v", cold.Cold(), err)
	}
	invalid := ClassicSpec("", 1, 0, 1, 1)
	if _, _, err := s.CachedReport(ctx, invalid); err == nil || err.Error() != invalid.Validate().Error() {
		t.Fatalf("CachedReport of an invalid spec = %v, want %v", err, invalid.Validate())
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
		got, cold, err := s.CachedReport(ctx, spec)
		if err != nil || cold.Cold() {
			t.Fatalf("CachedReport(%q) missed after EvaluateSpec: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("CachedReport(%q) = %+v, EvaluateSpec served %+v", name, got, want)
		}
		hits := s.EngineStats().Hits
		s.CachedReport(ctx, spec)
		if got := s.EngineStats().Hits; got != hits+1 {
			t.Errorf("a warm lookup counted %d hits, want 1", got-hits)
		}
		if got := testing.AllocsPerRun(100, func() { s.CachedReport(ctx, spec) }); got > 1 {
			t.Errorf("warm CachedReport(%q) = %v allocs, want at most 1", name, got)
		}
	}
}

// TestColdEvaluateAllocations bounds what a cold evaluate costs in the
// facade once the tier-factor and security memos are warm and no tracer
// is set: the engine memo misses, so the design's shape is looked up,
// its security read from the shape's compiled models, its availability
// composed in pooled scratch, and the result memoized and reported. The
// miss registers its solve in flight in a reused call with no channel,
// as no other caller joins it, and the lookup holds the packed key in
// place, so what is left is the report's name-and-description string.
// The diagonal designs n-n-n-n warm every (role, n) tier factor and
// both security models; each run then evaluates a distinct off-diagonal
// design, built before the measurement.
func TestColdEvaluateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	s, err := NewCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const max = 6
	var specs []DesignSpec
	for dns := 1; dns <= max; dns++ {
		for web := 1; web <= max; web++ {
			for app := 1; app <= max; app++ {
				for db := 1; db <= max; db++ {
					spec := ClassicSpec("", dns, web, app, db)
					if dns == web && web == app && app == db {
						if _, err := s.EvaluateSpecCtx(ctx, spec); err != nil {
							t.Fatal(err)
						}
						continue
					}
					specs = append(specs, spec)
				}
			}
		}
	}
	next := 0
	for _, tc := range []struct {
		name string
		run  func(DesignSpec) error
	}{
		{"EvaluateSpecCtx", func(spec DesignSpec) error {
			_, err := s.EvaluateSpecCtx(ctx, spec)
			return err
		}},
		// The daemon's path: the lookup packs the key the solve reuses.
		{"CachedReport+Evaluate", func(spec DesignSpec) error {
			_, cold, err := s.CachedReport(ctx, spec)
			if err == nil {
				_, err = cold.Evaluate(ctx)
			}
			return err
		}},
	} {
		warm, first := s.EngineStats(), next
		got := testing.AllocsPerRun(500, func() {
			if err := tc.run(specs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		st := s.EngineStats()
		if st.Solves-warm.Solves != uint64(next-first) || st.TierSolves != warm.TierSolves || st.SecuritySolves != warm.SecuritySolves {
			t.Fatalf("%s: measured evaluates were not engine misses on warm solver memos: %+v, was %+v", tc.name, st, warm)
		}
		t.Logf("cold %s: %v allocs", tc.name, got)
		if got > 1 {
			t.Errorf("cold %s = %v allocs, want at most 1", tc.name, got)
		}
	}
}

// TestColdSweepAllocations bounds what a traced sweep of the 512-design
// space with every memo cold allocates per design: dns, app and db at
// 1..4 replicas, web at 1..4 on either stack, on a case study built
// just before it under a patch cadence of its own, as a daemon serves a
// new scenario's first sweep. Per shape that is one solve of a stack no
// design has used (the webalt server SRN), the shape and its two
// security models; per design the report's string and the collector's
// share of the fan-out; and the sweep's one span with its aggregate. A
// per-design span, a per-design key or call, or per-design solver
// scratch each add at least one allocation per design. Each case study
// is measured once, and the least of three is checked, so a
// garbage-collection cycle landing in one sweep does not count.
func TestColdSweepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	req := SpecSweepRequest{Tiers: []TierSweep{
		{Role: "dns", Min: 1, Max: 4},
		{Role: "web", Min: 1, Max: 4, Variants: []string{"", "webalt"}},
		{Role: "app", Min: 1, Max: 4},
		{Role: "db", Min: 1, Max: 4},
	}}
	ctx := trace.WithTracer(context.Background(), trace.New(trace.Options{}))
	least := math.Inf(1)
	for i := range 3 {
		s, err := NewCaseStudyWithConfig(Config{PatchIntervalHours: float64(24 * (7 + i))})
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		total, err := s.SweepSpecEach(ctx, req, func(DesignReport) error { kept++; return nil })
		runtime.ReadMemStats(&after)
		if err != nil || total != 512 || kept != 512 {
			t.Fatalf("cold sweep: total %d, kept %d, err %v; want 512, 512, nil", total, kept, err)
		}
		if st := s.EngineStats(); st.Solves != 512 || st.SecuritySolves != 4 {
			t.Fatalf("cold sweep solved %d designs and %d security models, want 512 and 4", st.Solves, st.SecuritySolves)
		}
		least = min(least, float64(after.Mallocs-before.Mallocs)/512)
	}
	t.Logf("traced cold 512-design sweep: %.2f allocs per design", least)
	if least > coldSweepAllocsPerDesign {
		t.Errorf("traced cold 512-design sweep = %.2f allocs per design, want at most %v", least, coldSweepAllocsPerDesign)
	}
}

// coldSweepAllocsPerDesign is TestColdSweepAllocations' bound. On Go
// 1.24 the sweep reads about 4.1 (about 15 with a span, an in-flight
// key, call and channel per design); the report's string is one of them.
const coldSweepAllocsPerDesign = 5

// TestWarmSweepAllocations bounds what a warm 64-design classic sweep
// costs in the facade: the enumeration, the sweep's table of shape
// keys, the worker fan-out with one slice per claimed run, a memo read
// per design and one string per report holding its canonical name and
// description. A report carries
// the engine's spec as is, so no design pays for a spec copy, and an
// untraced sweep boxes no span attribute.
func TestWarmSweepAllocations(t *testing.T) {
	s, _ := caseStudy(t)
	ctx := context.Background()
	req := SpecSweepRequest{Tiers: []TierSweep{
		{Role: "dns", Min: 1, Max: 4}, {Role: "web", Min: 1, Max: 4},
		{Role: "app", Min: 1, Max: 4}, {Role: "db", Min: 1, Max: 1},
	}}
	kept := 0
	fn := func(DesignReport) error { kept++; return nil }
	if total, err := s.SweepSpecEach(ctx, req, fn); err != nil || total != 64 || kept != 64 {
		t.Fatalf("warm-up sweep: total %d, kept %d, err %v; want 64, 64, nil", total, kept, err)
	}
	got := testing.AllocsPerRun(20, func() { s.SweepSpecEach(ctx, req, fn) })
	t.Logf("warm 64-design sweep: %v allocs", got)
	if got > 84 {
		t.Errorf("warm 64-design sweep = %v allocs, want at most 84", got)
	}

	// An untraced warm rolling-8 rollout sweep boxes no span attribute
	// either: its 9 points cost the schedule's expansion, the fan-out,
	// and per point the patched counts and the report's copy of the
	// fractions. Naming the design and boxing the name per point made
	// it 53.
	spec := ClassicSpec("", 2, 3, 2, 2)
	sched := RolloutSchedule{Strategy: "rolling", Steps: 8}
	pointFn := func(RolloutReport) error { return nil }
	if n, err := s.RolloutSweepEach(ctx, spec, sched, pointFn, nil); err != nil || n != 9 {
		t.Fatalf("warm-up rollout sweep: %d points, %v; want 9", n, err)
	}
	got = testing.AllocsPerRun(20, func() { s.RolloutSweepEach(ctx, spec, sched, pointFn, nil) })
	t.Logf("warm rolling-8 rollout sweep: %v allocs", got)
	if got > 42 {
		t.Errorf("warm rolling-8 rollout sweep = %v allocs, want at most 42", got)
	}
}
