package redundancy

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"redpatch/internal/attacktree"
	"redpatch/internal/harm"
	"redpatch/internal/oracle"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
	"redpatch/internal/trace"
)

// TestRolloutDegenerateEndpoints is the byte-identity gate the rollout
// path must clear before the mixed points mean anything: fraction 0
// everywhere must reproduce the atomic before-patch result and fraction
// 1 everywhere the after-patch one, exactly — same security metrics bit
// for bit through both factored solvers, and for f=1 the same COA and
// service availability (f=0 is deterministically fully up: nothing is
// patching). CI runs it under the race detector with the other
// equivalence gates.
func TestRolloutDegenerateEndpoints(t *testing.T) {
	ctx := context.Background()
	specs := []paperdata.DesignSpec{
		paperdata.BaseDesign().Spec(),
		paperdata.Design{Name: "d2322", DNS: 2, Web: 3, App: 2, DB: 2}.Spec(),
		{
			Name: "het",
			Tiers: []paperdata.TierSpec{
				{Role: paperdata.RoleDNS, Replicas: 1},
				{Role: paperdata.RoleWeb, Replicas: 2},
				{Role: paperdata.RoleWeb, Replicas: 2, Variant: paperdata.RoleWebAlt},
				{Role: paperdata.RoleApp, Replicas: 2},
				{Role: paperdata.RoleDB, Replicas: 1},
			},
		},
	}
	allPol := patch.Policy{PatchAll: true}
	for _, pc := range []struct {
		name   string
		policy *patch.Policy
	}{
		{"critical", nil},
		{"patchAll", &allPol},
	} {
		pc := pc
		t.Run(pc.name, func(t *testing.T) {
			t.Parallel()
			ev, err := NewEvaluator(Options{Policy: pc.policy})
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range specs {
				atomic, err := ev.EvaluateSpecContext(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				zeros := make([]float64, len(spec.Tiers))
				ones := make([]float64, len(spec.Tiers))
				for i := range ones {
					ones[i] = 1
				}
				r0, err := ev.EvaluateRollout(ctx, spec, zeros)
				if err != nil {
					t.Fatalf("%s: f=0: %v", spec.Name, err)
				}
				if !reflect.DeepEqual(r0.Security, atomic.Before) {
					t.Errorf("%s: f=0 security differs from atomic before:\n%+v\n%+v",
						spec.Name, r0.Security, atomic.Before)
				}
				if r0.COA != 1 || r0.ServiceAvailability != 1 {
					t.Errorf("%s: f=0 COA %v, service availability %v, want exactly 1",
						spec.Name, r0.COA, r0.ServiceAvailability)
				}
				r1, err := ev.EvaluateRollout(ctx, spec, ones)
				if err != nil {
					t.Fatalf("%s: f=1: %v", spec.Name, err)
				}
				if !reflect.DeepEqual(r1.Security, atomic.After) {
					t.Errorf("%s: f=1 security differs from atomic after:\n%+v\n%+v",
						spec.Name, r1.Security, atomic.After)
				}
				if r1.COA != atomic.COA {
					t.Errorf("%s: f=1 COA %v != atomic %v", spec.Name, r1.COA, atomic.COA)
				}
				if r1.ServiceAvailability != atomic.ServiceAvailability {
					t.Errorf("%s: f=1 service availability %v != atomic %v",
						spec.Name, r1.ServiceAvailability, atomic.ServiceAvailability)
				}
			}
		})
	}
}

// rolloutSecurityExpanded is the mixed-version oracle: the fully
// expanded topology (every replica a host) with the patched replicas'
// trees pruned per instance, evaluated without any quotient. Host names
// replay SpecTopology's global stack counter; within a class the
// replicas are symmetric, so patching the last p of each group matches
// any placement the quotient could stand for.
func rolloutSecurityExpanded(ev *Evaluator, spec paperdata.DesignSpec, patched []int) (harm.Metrics, error) {
	top, err := paperdata.SpecTopology(spec)
	if err != nil {
		return harm.Metrics{}, err
	}
	inst := make(map[string]*attacktree.Tree)
	counter := make(map[string]int)
	indices := spec.LogicalIndices()
	for li, lt := range spec.Logical() {
		for gi, g := range lt.Groups {
			stack := g.Stack()
			p := patched[indices[li][gi]]
			for r := 1; r <= g.Replicas; r++ {
				counter[stack]++
				if r > g.Replicas-p {
					host := fmt.Sprintf("%s%d", stack, counter[stack])
					tmpl := ev.trees[stack]
					if tmpl == nil {
						continue
					}
					inst[host] = tmpl.Prune(func(l *attacktree.Leaf) bool {
						return ev.keepLeaf(stack, l)
					})
				}
			}
		}
	}
	h, err := harm.Build(harm.BuildInput{
		Topology:      top,
		Trees:         ev.trees,
		InstanceTrees: inst,
		TargetRoles:   spec.TargetStacks(),
	})
	if err != nil {
		return harm.Metrics{}, err
	}
	return h.Evaluate(ev.evalOpts)
}

// TestFactoredSecurityEquivalenceRollout extends the security
// equivalence gate to mixed rollout points: across homogeneous and
// heterogeneous specs and a spread of per-tier fractions, the
// sub-classed rollout quotient must match the expanded per-instance
// oracle on every metric within 1e-9. CI runs it under the race
// detector.
func TestFactoredSecurityEquivalenceRollout(t *testing.T) {
	ctx := context.Background()
	ev, err := NewEvaluator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	specs := []paperdata.DesignSpec{
		paperdata.BaseDesign().Spec(),
		paperdata.Design{Name: "d3233", DNS: 3, Web: 2, App: 3, DB: 3}.Spec(),
		{
			Name: "het",
			Tiers: []paperdata.TierSpec{
				{Role: paperdata.RoleDNS, Replicas: 2},
				{Role: paperdata.RoleWeb, Replicas: 3},
				{Role: paperdata.RoleWeb, Replicas: 2, Variant: paperdata.RoleWebAlt},
				{Role: paperdata.RoleApp, Replicas: 2},
				{Role: paperdata.RoleDB, Replicas: 2},
			},
		},
		{
			// Interleaved groups: spec.Tiers order differs from the logical
			// layering, exercising the fraction-to-tier index mapping.
			Name: "interleaved",
			Tiers: []paperdata.TierSpec{
				{Role: paperdata.RoleDNS, Replicas: 1},
				{Role: paperdata.RoleWeb, Replicas: 2},
				{Role: paperdata.RoleApp, Replicas: 2},
				{Role: paperdata.RoleWeb, Replicas: 2, Variant: paperdata.RoleWebAlt},
				{Role: paperdata.RoleDB, Replicas: 2},
			},
		},
	}
	// A spread of fraction shapes per spec: uniform mid-rollout, skewed,
	// and a mix of finished and untouched tiers.
	shapes := []func(i, tiers int) float64{
		func(i, tiers int) float64 { return 0.5 },
		func(i, tiers int) float64 { return float64(i) / float64(tiers) },
		func(i, tiers int) float64 {
			if i%2 == 0 {
				return 1
			}
			return 0
		},
	}
	for _, spec := range specs {
		for si, shape := range shapes {
			fractions := make([]float64, len(spec.Tiers))
			for i := range fractions {
				fractions[i] = shape(i, len(spec.Tiers))
			}
			r, err := ev.EvaluateRollout(ctx, spec, fractions)
			if err != nil {
				t.Fatalf("%s/shape%d: rollout: %v", spec.Name, si, err)
			}
			exp, err := rolloutSecurityExpanded(ev, spec, r.Patched)
			if err != nil {
				t.Fatalf("%s/shape%d: expanded oracle: %v", spec.Name, si, err)
			}
			assertMetricsEqual(t, fmt.Sprintf("%s/shape%d", spec.Name, si), r.Security, exp)
		}
	}
}

// TestRolloutAvailabilityMapping pins the fraction-to-tier mapping on
// the availability side with an interleaved spec whose web groups are
// patched asymmetrically: the composed mixed-version solution must match
// a hand-built oracle over the logical tier order.
func TestRolloutAvailabilityMapping(t *testing.T) {
	ctx := context.Background()
	ev, err := NewEvaluator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := paperdata.DesignSpec{
		Name: "interleaved",
		Tiers: []paperdata.TierSpec{
			{Role: paperdata.RoleDNS, Replicas: 1},
			{Role: paperdata.RoleWeb, Replicas: 2},
			{Role: paperdata.RoleApp, Replicas: 2},
			{Role: paperdata.RoleWeb, Replicas: 2, Variant: paperdata.RoleWebAlt},
			{Role: paperdata.RoleDB, Replicas: 1},
		},
	}
	// Patch all of web, none of webalt, half of app: a wrong mapping
	// would hand app's fraction to webalt (their spec positions swap in
	// logical order) and change the composition.
	fractions := []float64{0, 1, 0.5, 0, 0}
	r, err := ev.EvaluateRollout(ctx, spec, fractions)
	if err != nil {
		t.Fatal(err)
	}
	nm, _, err := ev.networkModelFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	// nm.Tiers is the logical order dns, web, webalt, app, db; the
	// patched counts are written out by hand against it.
	want, err := oracle.SolveNetworkRollout(nm, []int{0, 2, 0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.COA != want.COA {
		t.Errorf("COA %v != oracle %v", r.COA, want.COA)
	}
	if r.ServiceAvailability != want.ServiceAvailability {
		t.Errorf("service availability %v != oracle %v", r.ServiceAvailability, want.ServiceAvailability)
	}
}

// TestRolloutMemoReuse: re-evaluating rollout points must reuse both the
// mixed-version security model (per rollout structure) and the partial
// tier factors (per stack, n, patched).
func TestRolloutMemoReuse(t *testing.T) {
	ctx := context.Background()
	ev, err := NewEvaluator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := paperdata.Design{Name: "m", DNS: 2, Web: 3, App: 2, DB: 2}.Spec()
	fr := []float64{0.5, 0.5, 0.5, 0.5}
	if _, err := ev.EvaluateRollout(ctx, spec, fr); err != nil {
		t.Fatal(err)
	}
	st := ev.SolverStats()
	if st.SecuritySolves != 1 || st.SecurityFactorHits != 0 {
		t.Fatalf("after first eval: models/hits = %d/%d, want 1/0",
			st.SecuritySolves, st.SecurityFactorHits)
	}
	// The same point again, and a different fraction vector with the same
	// ceil()ed patched counts: both are pure model-memo hits.
	if _, err := ev.EvaluateRollout(ctx, spec, fr); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.EvaluateRollout(ctx, spec, []float64{0.4, 0.4, 0.3, 0.26}); err != nil {
		t.Fatal(err)
	}
	st = ev.SolverStats()
	if st.SecuritySolves != 1 || st.SecurityFactorHits != 2 {
		t.Errorf("after repeats: models/hits = %d/%d, want 1/2", st.SecuritySolves, st.SecurityFactorHits)
	}

	// Scaling a replica count keeps the rollout structure (same class
	// split pattern), so the model is shared; only multiplicities change.
	scaled := paperdata.Design{Name: "m2", DNS: 4, Web: 5, App: 4, DB: 4}.Spec()
	if _, err := ev.EvaluateRollout(ctx, scaled, fr); err != nil {
		t.Fatal(err)
	}
	if st = ev.SolverStats(); st.SecuritySolves != 1 {
		t.Errorf("scaled spec built a new model: SecuritySolves = %d, want 1", st.SecuritySolves)
	}
}

// TestAtomicAndRolloutShareSecurityMemo: an atomic evaluation builds the
// unpatched and fully patched models, and the rollout endpoints of the
// same design are then pure memo hits — one memo, not two.
func TestAtomicAndRolloutShareSecurityMemo(t *testing.T) {
	ev, err := NewEvaluator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	memo := make(map[string]any)
	var mu sync.Mutex
	tr := trace.New(trace.Options{OnEnd: func(d trace.SpanData) {
		if v, ok := d.Attr("security_memo"); ok {
			mu.Lock()
			memo[d.Name] = v
			mu.Unlock()
		}
	}})
	ctx := trace.WithTracer(context.Background(), tr)
	d := paperdata.BaseDesign().Spec()
	if _, err := ev.EvaluateSpecContext(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]float64{"zeros": 0, "ones": 1} {
		fractions := []float64{f, f, f, f}
		pctx, sp := trace.Start(ctx, name)
		if _, err := ev.EvaluateRollout(pctx, d, fractions); err != nil {
			t.Fatal(err)
		}
		sp.End()
	}
	if st := ev.SolverStats(); st.SecuritySolves != 2 {
		t.Errorf("SecuritySolves = %d, want 2 (the atomic endpoints only)", st.SecuritySolves)
	}
	for _, name := range []string{"zeros", "ones"} {
		if memo[name] != "hit" {
			t.Errorf("rollout %s: security_memo = %v, want hit", name, memo[name])
		}
	}
}

func TestRolloutSchedulePoints(t *testing.T) {
	uniform := func(f float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = f
		}
		return out
	}
	oneShot, err := RolloutSchedule{Strategy: RolloutOneShot}.Points(3)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]float64{uniform(0, 3), uniform(1, 3)}; !reflect.DeepEqual(oneShot, want) {
		t.Errorf("one-shot = %v, want %v", oneShot, want)
	}
	rolling, err := RolloutSchedule{Strategy: RolloutRolling, Steps: 2}.Points(2)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]float64{uniform(0, 2), uniform(0.5, 2), uniform(1, 2)}; !reflect.DeepEqual(rolling, want) {
		t.Errorf("rolling = %v, want %v", rolling, want)
	}
	// Rolling with a step count that does not divide 1 exactly must still
	// end at exactly 1.
	rolling7, err := RolloutSchedule{Strategy: RolloutRolling, Steps: 7}.Points(1)
	if err != nil {
		t.Fatal(err)
	}
	if last := rolling7[len(rolling7)-1][0]; last != 1 {
		t.Errorf("rolling-7 last point = %v, want exactly 1", last)
	}
	bg, err := RolloutSchedule{Strategy: RolloutBlueGreen, Order: []int{2, 0, 1}}.Points(3)
	if err != nil {
		t.Fatal(err)
	}
	wantBG := [][]float64{
		{0, 0, 0}, {0, 0, 1}, {1, 0, 1}, {1, 1, 1},
	}
	if !reflect.DeepEqual(bg, wantBG) {
		t.Errorf("blue-green = %v, want %v", bg, wantBG)
	}
	canary, err := RolloutSchedule{Strategy: RolloutCanary, Steps: 3, CanaryFraction: 0.1}.Points(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(canary) != 5 {
		t.Fatalf("canary has %d points, want 5", len(canary))
	}
	if canary[0][0] != 0 || canary[1][0] != 0.1 || canary[len(canary)-1][0] != 1 {
		t.Errorf("canary = %v, want 0, 0.1, ..., exactly 1", canary)
	}
	custom, err := RolloutSchedule{Fractions: [][]float64{{0, 0.5}, {1, 1}}}.Points(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(custom) != 2 || custom[0][1] != 0.5 {
		t.Errorf("custom = %v", custom)
	}

	for _, bad := range []RolloutSchedule{
		{},                               // custom without fractions
		{Fractions: [][]float64{{0.5}}},  // wrong arity for 2 tiers
		{Fractions: [][]float64{{0, 2}}}, // fraction above 1
		{Strategy: "bogus"},
		{Strategy: RolloutBlueGreen, Order: []int{0, 0}},
		{Strategy: RolloutBlueGreen, Order: []int{0}},
		{Strategy: RolloutCanary, CanaryFraction: 1.5},
	} {
		if _, err := bad.Points(2); err == nil {
			t.Errorf("schedule %+v should fail", bad)
		}
	}
	if _, err := (RolloutSchedule{Strategy: RolloutOneShot}).Points(0); err == nil {
		t.Error("zero tiers should fail")
	}
}

func TestPatchedCounts(t *testing.T) {
	spec := paperdata.Design{Name: "p", DNS: 1, Web: 4, App: 3, DB: 2}.Spec()
	got, err := PatchedCounts(spec, []float64{0, 0.25, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("PatchedCounts = %v, want %v", got, want)
	}
	// Any non-zero fraction patches at least one replica.
	got, err = PatchedCounts(spec, []float64{0.001, 0.001, 0.001, 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 1, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("PatchedCounts(eps) = %v, want %v", got, want)
	}
	if _, err := PatchedCounts(spec, []float64{0, 0, 0}); err == nil {
		t.Error("wrong fraction arity should fail")
	}
	if _, err := PatchedCounts(spec, []float64{0, 0, 0, 1.5}); err == nil {
		t.Error("fraction above 1 should fail")
	}
}

// TestPatchedCountsCanaryRounding: a canary schedule's computed
// fractions carry float noise (0.2 + 0.8/2 = 0.6000000000000001), which
// must not round a whole extra replica into the wave.
func TestPatchedCountsCanaryRounding(t *testing.T) {
	points, err := RolloutSchedule{Strategy: RolloutCanary, CanaryFraction: 0.2, Steps: 2}.Points(1)
	if err != nil {
		t.Fatal(err)
	}
	for n, want := range map[int][]int{
		5:  {0, 1, 3, 5},
		10: {0, 2, 6, 10},
		15: {0, 3, 9, 15},
	} {
		spec := paperdata.DesignSpec{Name: "c", Tiers: []paperdata.TierSpec{{Role: paperdata.RoleWeb, Replicas: n}}}
		got := make([]int, len(points))
		for i, p := range points {
			counts, err := PatchedCounts(spec, p)
			if err != nil {
				t.Fatal(err)
			}
			got[i] = counts[0]
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d replicas: canary patched counts = %v, want %v", n, got, want)
		}
	}
}

// TestRolloutFront runs Front on the rollout plane, where the
// mixed-version Security metrics are the ASP axis.
func TestRolloutFront(t *testing.T) {
	mk := func(asp, coa float64) RolloutResult {
		return RolloutResult{Security: harm.Metrics{ASP: asp}, COA: coa}
	}
	points := []RolloutResult{
		mk(0.9, 1.0),   // unpatched end: worst security, best availability
		mk(0.5, 0.999), // mid-rollout: on the frontier
		mk(0.5, 0.99),  // dominated by the point above
		mk(0.2, 0.995), // patched end
	}
	front := Front(points,
		func(r RolloutResult) (float64, float64) { return r.Security.ASP, r.COA },
		func(a, b RolloutResult) int { return 0 })
	if len(front) != 3 {
		t.Fatalf("front has %d points, want 3: %+v", len(front), front)
	}
	for i := 1; i < len(front); i++ {
		if front[i].Security.ASP < front[i-1].Security.ASP {
			t.Errorf("front not sorted by ascending ASP: %+v", front)
		}
	}
	for _, f := range front {
		if f.Security.ASP == 0.5 && f.COA == 0.99 {
			t.Error("dominated point survived")
		}
	}
}
