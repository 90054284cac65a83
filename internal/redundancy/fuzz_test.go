package redundancy_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"testing"

	"redpatch/internal/availability"
	"redpatch/internal/engine"
	"redpatch/internal/harm"
	"redpatch/internal/mathx"
	"redpatch/internal/oracle"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
	"redpatch/internal/redundancy"
)

// fuzzStacks are the catalog's software stacks, in the order the fuzz
// encoding indexes them: a tier's role is one of them, and its variant
// is empty or one of them.
var fuzzStacks = []string{
	paperdata.RoleDNS, paperdata.RoleWeb, paperdata.RoleApp, paperdata.RoleDB, paperdata.RoleWebAlt,
}

// fuzzCase is one decoded fuzz input: a valid design, a patch policy
// and a rollout point.
type fuzzCase struct {
	spec      paperdata.DesignSpec
	policy    patch.Policy
	fractions []float64
}

// decodeFuzzCase maps arbitrary bytes onto a valid case. Byte 0 picks
// the policy (critical, patch-all, or a CVSS threshold from byte 1 in
// 0.0..10.0), byte 2 the tier count (1..5), and every tier reads four
// bytes: role, variant (0 is none), replicas (1..4) and rollout fraction
// (0 is exactly 0, 255 exactly 1). Missing bytes read as 0. At most 20
// servers keep the expanded HARM's exact ASP under its default cap and
// the SRN product chain small.
func decodeFuzzCase(data []byte) fuzzCase {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	var c fuzzCase
	switch at(0) % 3 {
	case 0:
		c.policy = patch.CriticalPolicy()
	case 1:
		c.policy = patch.Policy{PatchAll: true}
	default:
		c.policy = patch.Policy{CriticalThreshold: float64(at(1)%101) / 10}
	}
	tiers := 1 + at(2)%5
	for i := range tiers {
		b := 3 + 4*i
		t := paperdata.TierSpec{
			Role:     fuzzStacks[at(b)%len(fuzzStacks)],
			Replicas: 1 + at(b+2)%4,
		}
		if v := at(b+1) % (len(fuzzStacks) + 1); v > 0 {
			t.Variant = fuzzStacks[v-1]
		}
		c.spec.Tiers = append(c.spec.Tiers, t)
		c.fractions = append(c.fractions, float64(at(b+3))/255)
	}
	c.spec.Name = c.spec.CanonicalName()
	return c
}

// encodeFuzzCase is decodeFuzzCase's inverse for the seed corpus:
// policy 0 critical, 1 patch-all, 2 threshold; one fraction byte per
// tier.
func encodeFuzzCase(spec paperdata.DesignSpec, policy, threshold byte, fractions []byte) []byte {
	index := func(stack string) byte {
		for i, s := range fuzzStacks {
			if s == stack {
				return byte(i)
			}
		}
		panic("fuzz seed uses unknown stack " + stack)
	}
	out := []byte{policy, threshold, byte(len(spec.Tiers) - 1)}
	for i, t := range spec.Tiers {
		variant := byte(0)
		if t.Variant != "" {
			variant = 1 + index(t.Variant)
		}
		out = append(out, index(t.Role), variant, byte(t.Replicas-1), fractions[i%len(fractions)])
	}
	return out
}

// fuzzEngines holds one long-lived engine per policy, so memo hits
// accumulate across inputs the way a running daemon's do.
var fuzzEngines sync.Map // patch.Policy -> *engine.Engine

func engineFor(t *testing.T, policy patch.Policy) *engine.Engine {
	if g, ok := fuzzEngines.Load(policy); ok {
		return g.(*engine.Engine)
	}
	ev, err := redundancy.NewEvaluator(redundancy.Options{Policy: &policy})
	if err != nil {
		t.Fatal(err)
	}
	g, err := engine.New(ev, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	actual, _ := fuzzEngines.LoadOrStore(policy, g)
	return actual.(*engine.Engine)
}

// FuzzFastPathMatchesOracles pins every fast path to its oracle on
// fuzzed designs, policies and rollout points:
//   - the factored (quotient) security metrics, before and after the
//     patch round and at the rollout point, match the replica-expanded
//     HARM on every Table II metric (counts exactly, AIM and ASP within
//     1e-9);
//   - the factored availability solution matches the generated SRN on
//     every NetworkSolution measure within 1e-9;
//   - the f=0 and f=1 rollout points are byte-identical to the atomic
//     result's two sides;
//   - an engine memo hit, atomic or rollout, serves exactly what a
//     fresh evaluator answers: the same spec and every served number
//     bit for bit (the memo keeps no Paths or ShortestPath);
//   - a design shape resolved, on an evaluator of its own, from another
//     replica vector of the same roles and stacks — its security models
//     compiled from that vector, atomically and at a point of the same
//     patch pattern — scores the design, atomically and at the rollout
//     point, exactly as the fresh evaluator does.
func FuzzFastPathMatchesOracles(f *testing.F) {
	fractions := [][]byte{{0}, {255}, {128}, {0, 255}, {64, 191, 255, 0, 32}}
	for i, spec := range redundancy.EquivalenceSpecs() {
		f.Add(encodeFuzzCase(spec, byte(i%3), byte(i%101), fractions[i%len(fractions)]))
	}
	// Shapes whose quotient merges groups: two web groups on one stack
	// (one class), and web groups on one stack split by a webalt group.
	web := func(n int, variant string) paperdata.TierSpec {
		return paperdata.TierSpec{Role: paperdata.RoleWeb, Replicas: n, Variant: variant}
	}
	dns := paperdata.TierSpec{Role: paperdata.RoleDNS, Replicas: 1}
	db := paperdata.TierSpec{Role: paperdata.RoleDB, Replicas: 2}
	for _, tiers := range [][]paperdata.TierSpec{
		{dns, web(1, ""), web(2, ""), db},
		{dns, web(2, ""), web(1, paperdata.RoleWebAlt), web(1, ""), db},
	} {
		for _, fr := range fractions[2:] {
			f.Add(encodeFuzzCase(paperdata.DesignSpec{Tiers: tiers}, 0, 0, fr))
		}
	}
	for i, d := range append(paperdata.Designs(), paperdata.BaseDesign()) {
		for policy := range byte(3) {
			f.Add(encodeFuzzCase(d.Spec(), policy, 80, fractions[i%len(fractions)]))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFuzzCase(data)
		// The evaluator takes a valid spec, as the engine's entries
		// check it; the decoder builds only valid ones.
		if err := c.spec.Validate(); err != nil {
			t.Fatalf("decoded an invalid spec %s: %v", c.spec, err)
		}
		ctx := context.Background()
		ev, err := redundancy.NewEvaluator(redundancy.Options{Policy: &c.policy})
		if err != nil {
			t.Fatal(err)
		}
		atomic, _, err := ev.EvaluateSpecContext(context.Background(), c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}

		// Security: factored against the expanded oracle.
		expBefore, expAfter, err := ev.SecurityExpanded(c.spec)
		if err != nil {
			t.Fatalf("%s: expanded oracle: %v", c.spec, err)
		}
		checkSecurity(t, c.spec.Name+"/before", atomic.Before, expBefore)
		checkSecurity(t, c.spec.Name+"/after", atomic.After, expAfter)

		// Availability: factored against the SRN oracle.
		nm, factors, fac, err := ev.FactoredNetwork(ctx, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		srn, err := oracle.SolveNetworkSRN(nm)
		if err != nil {
			t.Fatalf("%s: SRN oracle: %v", c.spec, err)
		}
		checkNetwork(t, c.spec.Name, nm, factors, fac, srn)
		if fac.COA != atomic.COA || fac.ServiceAvailability != atomic.ServiceAvailability {
			t.Errorf("%s: served COA/SA %v/%v != factored solution %v/%v",
				c.spec.Name, atomic.COA, atomic.ServiceAvailability, fac.COA, fac.ServiceAvailability)
		}

		// The rollout point against the mixed-version expanded oracle.
		point, err := ev.EvaluateRollout(ctx, c.spec, c.fractions)
		if err != nil {
			t.Fatalf("%s at %v: %v", c.spec, c.fractions, err)
		}
		expPoint, err := ev.RolloutSecurityExpanded(c.spec, point.Patched)
		if err != nil {
			t.Fatalf("%s at %v: expanded oracle: %v", c.spec, point.Patched, err)
		}
		checkSecurity(t, c.spec.Name+"/rollout", point.Security, expPoint)

		// Degenerate rollout endpoints reproduce the atomic sides.
		zeros := make([]float64, len(c.spec.Tiers))
		ones := make([]float64, len(c.spec.Tiers))
		for i := range ones {
			ones[i] = 1
		}
		r0, err := ev.EvaluateRollout(ctx, c.spec, zeros)
		if err != nil {
			t.Fatal(err)
		}
		sameJSON(t, c.spec.Name+" f=0 security", r0.Security, atomic.Before)
		if r0.COA != 1 || r0.ServiceAvailability != 1 {
			t.Errorf("%s: f=0 COA/SA %v/%v, want exactly 1", c.spec.Name, r0.COA, r0.ServiceAvailability)
		}
		r1, err := ev.EvaluateRollout(ctx, c.spec, ones)
		if err != nil {
			t.Fatal(err)
		}
		sameJSON(t, c.spec.Name+" f=1 security", r1.Security, atomic.After)
		if r1.COA != atomic.COA || r1.ServiceAvailability != atomic.ServiceAvailability {
			t.Errorf("%s: f=1 COA/SA %v/%v != atomic %v/%v", c.spec.Name,
				r1.COA, r1.ServiceAvailability, atomic.COA, atomic.ServiceAvailability)
		}

		// A shape resolved from another replica vector serves the spec.
		checkShape(t, c, atomic, point)

		// Engine memo hits equal the fresh evaluator's answers.
		g := engineFor(t, c.policy)
		for range 2 {
			hit, err := g.EvaluateSpecCtx(ctx, c.spec)
			if err != nil {
				t.Fatal(err)
			}
			if !sameServed(hit, atomic) {
				t.Errorf("%s: engine answer differs from a fresh evaluator:\n%+v\n%+v", c.spec.Name, hit, atomic)
			}
			hitPoint, err := g.EvaluateRollout(ctx, c.spec, c.fractions)
			if err != nil {
				t.Fatal(err)
			}
			if !sameServedPoint(hitPoint, point) {
				t.Errorf("%s: engine rollout answer differs from a fresh evaluator:\n%+v\n%+v", c.spec.Name, hitPoint, point)
			}
		}
	})
}

// checkShape resolves c's shape on an evaluator of its own from
// another replica vector, one more replica in every group, and compiles
// the shape's models from that vector: both atomic endpoints, and the
// rollout point's patch pattern at patched counts that split, patch or
// leave every class as c's point does (a fully patched group stays fully
// patched, any other keeps its count). Evaluated on that evaluator, c's
// spec must reuse the shape, build no model, and equal what a fresh
// evaluator answered, atomically and at the rollout point.
func checkShape(t *testing.T, c fuzzCase, atomic redundancy.Result, point redundancy.RolloutResult) {
	t.Helper()
	ctx := context.Background()
	other := paperdata.DesignSpec{Name: "other"}
	otherPatched := make([]int, len(c.spec.Tiers))
	for i, tier := range c.spec.Tiers {
		tier.Replicas++
		other.Tiers = append(other.Tiers, tier)
		otherPatched[i] = point.Patched[i]
		if point.Patched[i] == c.spec.Tiers[i].Replicas {
			otherPatched[i] = tier.Replicas
		}
	}
	ev, err := redundancy.NewEvaluator(redundancy.Options{Policy: &c.policy})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ev.EvaluateSpecContext(ctx, other); err != nil {
		t.Fatalf("%s: %v", other, err)
	}
	if _, _, err := ev.EvaluatePatched(ctx, other, otherPatched); err != nil {
		t.Fatalf("%s at %v: %v", other, otherPatched, err)
	}
	before := ev.SolverStats().SecuritySolves
	got, _, err := ev.EvaluateSpecContext(ctx, c.spec)
	if err != nil {
		t.Fatalf("%s through the shape of %s: %v", c.spec, other, err)
	}
	if !reflect.DeepEqual(got, atomic) {
		t.Errorf("%s through the shape of %s:\n%+v\nfresh evaluator:\n%+v", c.spec.Name, other, got, atomic)
	}
	gotPoint, _, err := ev.EvaluatePatched(ctx, c.spec, point.Patched)
	if err != nil {
		t.Fatalf("%s at %v through the shape of %s: %v", c.spec, point.Patched, other, err)
	}
	gotPoint.Fractions = point.Fractions
	if !reflect.DeepEqual(gotPoint, point) {
		t.Errorf("%s at %v through the shape of %s:\n%+v\nfresh evaluator:\n%+v", c.spec.Name, point.Patched, other, gotPoint, point)
	}
	if after := ev.SolverStats().SecuritySolves; after != before {
		t.Errorf("%s through the shape of %s built %d security models, want the shape's own", c.spec.Name, other, after-before)
	}
	if n := ev.Shapes(); n != 1 {
		t.Errorf("%s after %s: evaluator holds %d shapes, want the one they share", c.spec.Name, other, n)
	}
}

// servedBits projects security metrics onto the five numbers a report
// serves, floats as bit patterns, so == compares them bitwise.
func servedBits(m harm.Metrics) [5]uint64 {
	return [5]uint64{math.Float64bits(m.AIM), math.Float64bits(m.ASP),
		uint64(m.NoEV), uint64(m.NoAP), uint64(m.NoEP)}
}

// summaryBits is servedBits for a report's summary.
func summaryBits(s engine.Summary) [5]uint64 {
	return servedBits(harm.Metrics{AIM: s.AIM, ASP: s.ASP, NoEV: s.NoEV, NoAP: s.NoAP, NoEP: s.NoEP})
}

// sameServed reports whether an engine report serves the design and
// the numbers of an evaluator result, bit for bit.
func sameServed(a engine.Report, b redundancy.Result) bool {
	return reflect.DeepEqual(a.Spec, b.Spec) &&
		summaryBits(a.Before) == servedBits(b.Before) && summaryBits(a.After) == servedBits(b.After) &&
		math.Float64bits(a.COA) == math.Float64bits(b.COA) &&
		math.Float64bits(a.ServiceAvailability) == math.Float64bits(b.ServiceAvailability)
}

// sameServedPoint is sameServed for rollout points: fractions, patched
// counts and the served numbers.
func sameServedPoint(a engine.RolloutReport, b redundancy.RolloutResult) bool {
	return reflect.DeepEqual(a.Fractions, b.Fractions) &&
		reflect.DeepEqual(a.Patched, b.Patched) && summaryBits(a.Security) == servedBits(b.Security) &&
		math.Float64bits(a.COA) == math.Float64bits(b.COA) &&
		math.Float64bits(a.ServiceAvailability) == math.Float64bits(b.ServiceAvailability)
}

// checkSecurity compares factored and expanded metrics on every Table II
// metric plus the shortest path: counts exactly, AIM and ASP within
// 1e-9.
func checkSecurity(t *testing.T, label string, fac, exp harm.Metrics) {
	t.Helper()
	const tol = 1e-9
	if fac.NoEV != exp.NoEV || fac.NoAP != exp.NoAP || fac.NoEP != exp.NoEP || fac.ShortestPath != exp.ShortestPath {
		t.Errorf("%s: NoEV/NoAP/NoEP/SP %d/%d/%d/%d != expanded %d/%d/%d/%d", label,
			fac.NoEV, fac.NoAP, fac.NoEP, fac.ShortestPath, exp.NoEV, exp.NoAP, exp.NoEP, exp.ShortestPath)
	}
	if !mathx.AlmostEqual(fac.AIM, exp.AIM, tol) {
		t.Errorf("%s: AIM %.12f != expanded %.12f", label, fac.AIM, exp.AIM)
	}
	if !mathx.AlmostEqual(fac.ASP, exp.ASP, tol) {
		t.Errorf("%s: ASP %.12f != expanded %.12f", label, fac.ASP, exp.ASP)
	}
}

// checkNetwork compares the factored and SRN solutions on every
// NetworkSolution measure, reading the factored per-tier all-up
// probabilities from the tier factors.
func checkNetwork(t *testing.T, label string, nm availability.NetworkModel, factors []availability.TierFactor, fac, srn availability.NetworkSolution) {
	t.Helper()
	const tol = 1e-9
	if !fac.Factored || srn.Factored {
		t.Errorf("%s: Factored flags %v/%v, want true/false", label, fac.Factored, srn.Factored)
	}
	if fac.States != srn.States {
		t.Errorf("%s: states %d != SRN %d", label, fac.States, srn.States)
	}
	if !mathx.AlmostEqual(fac.COA, srn.COA, tol) {
		t.Errorf("%s: COA %.12f != SRN %.12f", label, fac.COA, srn.COA)
	}
	if !mathx.AlmostEqual(fac.ServiceAvailability, srn.ServiceAvailability, tol) {
		t.Errorf("%s: service availability %.12f != SRN %.12f", label, fac.ServiceAvailability, srn.ServiceAvailability)
	}
	if len(factors) != len(srn.TierAllUp) {
		t.Errorf("%s: %d tier factors != SRN %d tier all-up entries", label, len(factors), len(srn.TierAllUp))
	}
	for i, tier := range nm.Tiers {
		if !mathx.AlmostEqual(factors[i].PMF[factors[i].N()], srn.TierAllUp[tier.Name], tol) {
			t.Errorf("%s: tier %s all-up %.12f != SRN %.12f", label, tier.Name, factors[i].PMF[factors[i].N()], srn.TierAllUp[tier.Name])
		}
	}
}

// sameJSON asserts two values encode to identical bytes.
func sameJSON(t *testing.T, label string, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("%s differs:\n%s\n%s", label, g, w)
	}
}
