package engine

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"redpatch/internal/harm"
	"redpatch/internal/paperdata"
	"redpatch/internal/redundancy"
	"redpatch/internal/trace"
)

// sharedEvaluator builds the paper evaluator once; solving the four
// per-role SRNs dominates construction cost.
var (
	evalOnce sync.Once
	evalRef  *redundancy.Evaluator
	evalErr  error
)

func paperEvaluator(t testing.TB) *redundancy.Evaluator {
	t.Helper()
	evalOnce.Do(func() {
		evalRef, evalErr = redundancy.NewEvaluator(redundancy.Options{})
	})
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	return evalRef
}

// classicSpace sweeps the paper's four roles over one replica range.
func classicSpace(lo, hi int) SweepSpec {
	var s SweepSpec
	for _, role := range paperdata.Roles() {
		s.Tiers = append(s.Tiers, TierSweep{Role: role, Min: lo, Max: hi})
	}
	return s
}

// fullSpace sweeps every classic design with 1..max replicas per tier.
func fullSpace(max int) SweepSpec { return classicSpace(1, max) }

// namedDesigns is the spec's enumeration with each design named
// canonically, as a sweep names the reports it keeps.
func namedDesigns(spec SweepSpec) []paperdata.DesignSpec {
	designs := spec.Designs()
	for i := range designs {
		designs[i].Name = designs[i].CanonicalName()
	}
	return designs
}

// evaluateSerially is the serial reference: the bare evaluator over
// designs, in order, each result read as the report it serves.
func evaluateSerially(t *testing.T, ev *redundancy.Evaluator, designs []paperdata.DesignSpec) []Report {
	t.Helper()
	out := make([]Report, len(designs))
	for i, d := range designs {
		r, _, err := ev.EvaluateSpecContext(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = reportOf(r)
	}
	return out
}

// reportOf reads an evaluator result as the report it serves, without
// a description.
func reportOf(r redundancy.Result) Report {
	sum := func(m harm.Metrics) Summary {
		return Summary{AIM: m.AIM, ASP: m.ASP, NoEV: m.NoEV, NoAP: m.NoAP, NoEP: m.NoEP}
	}
	return Report{Name: r.Spec.Name, Spec: r.Spec, Servers: r.Spec.Total(),
		Before: sum(r.Before), After: sum(r.After), COA: r.COA, ServiceAvailability: r.ServiceAvailability}
}

// countingEvaluator wraps a DesignEvaluator and counts EvaluateSpecContext
// and EvaluatePatched calls;
// optionally it blocks every call until released, to force overlap.
type countingEvaluator struct {
	inner        DesignEvaluator
	calls        atomic.Int64
	rolloutCalls atomic.Int64
	gate         chan struct{}
}

func (c *countingEvaluator) EvaluateSpecContext(ctx context.Context, spec paperdata.DesignSpec) (redundancy.Result, redundancy.Provenance, error) {
	c.calls.Add(1)
	if c.gate != nil {
		<-c.gate
	}
	return c.inner.EvaluateSpecContext(ctx, spec)
}

func (c *countingEvaluator) EvaluatePatched(ctx context.Context, spec paperdata.DesignSpec, patched []int) (redundancy.RolloutResult, redundancy.Provenance, error) {
	c.rolloutCalls.Add(1)
	return c.inner.EvaluatePatched(ctx, spec, patched)
}

// served projects a report onto the spec's name and key and the twelve
// numbers, floats as bit patterns, so == compares reports bitwise.
type served struct {
	name, key string
	nums      [12]uint64
}

func servedOf(r Report) served {
	f := math.Float64bits
	return served{name: r.Spec.Name, key: r.Spec.Key(), nums: [12]uint64{
		f(r.Before.AIM), f(r.Before.ASP), uint64(r.Before.NoEV), uint64(r.Before.NoAP), uint64(r.Before.NoEP),
		f(r.After.AIM), f(r.After.ASP), uint64(r.After.NoEV), uint64(r.After.NoAP), uint64(r.After.NoEP),
		f(r.COA), f(r.ServiceAvailability),
	}}
}

func servedAll(rs []Report) []served {
	out := make([]served, len(rs))
	for i, r := range rs {
		out[i] = servedOf(r)
	}
	return out
}

// sweepAll runs one sweep and returns its total and the kept results in
// enumeration order (Sweep delivers them in completion order).
func sweepAll(ctx context.Context, g *Engine, spec SweepSpec) (int, []Report, error) {
	var kept []Report
	total, err := g.Sweep(ctx, spec, func(r Report) error {
		kept = append(kept, r)
		return nil
	}, nil)
	order := make(map[string]int)
	for i, d := range spec.Designs() {
		order[d.Key()] = i
	}
	slices.SortFunc(kept, func(a, b Report) int { return order[a.Spec.Key()] - order[b.Spec.Key()] })
	return total, kept, err
}

func TestParallelSweepMatchesSerialEvaluateAll(t *testing.T) {
	ev := paperEvaluator(t)
	spec := fullSpace(3) // 81 designs
	serial := evaluateSerially(t, ev, namedDesigns(spec))

	g, err := New(ev, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	total, kept, err := sweepAll(context.Background(), g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if total != len(serial) {
		t.Fatalf("total = %d, want %d", total, len(serial))
	}
	if !slices.Equal(servedAll(serial), servedAll(kept)) {
		t.Fatal("parallel sweep differs from the serial reference")
	}
}

func TestRepeatSweepServedFromCache(t *testing.T) {
	c := &countingEvaluator{inner: paperEvaluator(t)}
	g, err := New(c, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec := fullSpace(2) // 16 designs
	if _, _, err := sweepAll(context.Background(), g, spec); err != nil {
		t.Fatal(err)
	}
	if n := c.calls.Load(); n != 16 {
		t.Fatalf("first sweep solved %d designs, want 16", n)
	}
	_, first, err := sweepAll(context.Background(), g, spec)
	if err != nil {
		t.Fatal(err)
	}
	_, second, err := sweepAll(context.Background(), g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.calls.Load(); n != 16 {
		t.Fatalf("repeat sweeps performed %d extra solves", n-16)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached sweep differs from the original")
	}
	st := g.Stats()
	if st.Solves != 16 || st.Hits != 32 {
		t.Fatalf("stats = %+v, want 16 solves / 32 hits", st)
	}

	// An overlapping sweep only solves the designs it adds to the space.
	if _, _, err := sweepAll(context.Background(), g, fullSpace(3)); err != nil {
		t.Fatal(err)
	}
	if n := c.calls.Load(); n != 81 {
		t.Fatalf("overlapping sweep brought total solves to %d, want 81", n)
	}
}

func TestConcurrentDuplicatesShareOneSolve(t *testing.T) {
	c := &countingEvaluator{inner: paperEvaluator(t), gate: make(chan struct{})}
	g, err := New(c, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	d := paperdata.BaseDesign()
	const callers = 8
	results := make([]Report, callers)
	errs := make([]error, callers)
	var started, done sync.WaitGroup
	for i := 0; i < callers; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			started.Done()
			defer done.Done()
			results[i], errs[i] = g.EvaluateSpecCtx(context.Background(), d.Spec())
		}(i)
	}
	started.Wait()
	close(c.gate) // release the single in-flight solve
	done.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatal("concurrent duplicate returned a different result")
		}
	}
	if n := c.calls.Load(); n != 1 {
		t.Fatalf("%d callers performed %d solves, want 1", callers, n)
	}
}

// TestJoinerAbandonsOnCancel: a caller joining a blocked solve returns
// its context's error as soon as the context ends, without waiting for
// the solve; the solve finishes after it and memoizes its result for
// later callers, and neither caller leaves a goroutine behind.
func TestJoinerAbandonsOnCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	c := &countingEvaluator{inner: paperEvaluator(t), gate: make(chan struct{})}
	g, err := New(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := paperdata.BaseDesign().Spec()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	solved := make(chan error, 1)
	go func() {
		_, err := g.EvaluateSpecCtx(context.Background(), spec)
		solved <- err
	}()
	waitFor("the solve to block in the evaluator", func() bool { return c.calls.Load() == 1 })

	ctx, cancel := context.WithCancel(context.Background())
	joined := make(chan error, 1)
	go func() {
		_, err := g.EvaluateSpecCtx(ctx, spec)
		joined <- err
	}()
	// A joiner counts its hit once it is registered on the solve.
	waitFor("the second caller to join", func() bool { return g.Stats().Hits == 1 })
	cancel()
	select {
	case err := <-joined:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled joiner returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled joiner kept waiting for the blocked solve")
	}
	select {
	case err := <-solved:
		t.Fatalf("the solve returned %v before the evaluator was released", err)
	default:
	}

	close(c.gate)
	if err := <-solved; err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatalf("memo holds %d entries after the solve, want 1", g.Len())
	}
	if _, err := g.EvaluateSpecCtx(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if st := g.Stats(); c.calls.Load() != 1 || st.Solves != 1 || st.Hits != 2 {
		t.Fatalf("evaluator calls %d, stats %+v; want 1 call, 1 solve and 2 hits (the join and the memo read)",
			c.calls.Load(), st)
	}
	waitFor("the callers' goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

func TestEvaluateStampsRequestedName(t *testing.T) {
	g, err := New(paperEvaluator(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := g.EvaluateSpecCtx(context.Background(), paperdata.Design{Name: "first", DNS: 1, Web: 2, App: 2, DB: 1}.Spec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.EvaluateSpecCtx(context.Background(), paperdata.Design{Name: "second", DNS: 1, Web: 2, App: 2, DB: 1}.Spec())
	if err != nil {
		t.Fatal(err)
	}
	if a.Spec.Name != "first" || b.Spec.Name != "second" {
		t.Fatalf("names = %q, %q", a.Spec.Name, b.Spec.Name)
	}
	if a.COA != b.COA || !reflect.DeepEqual(a.After, b.After) {
		t.Fatal("same tuple under different names produced different metrics")
	}
	if st := g.Stats(); st.Solves != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 solve / 1 hit", st)
	}
}

func TestEvaluateRejectsInvalidDesign(t *testing.T) {
	g, err := New(paperEvaluator(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.EvaluateSpecCtx(context.Background(), paperdata.Design{Name: "bad", DNS: 0, Web: 1, App: 1, DB: 1}.Spec()); err == nil {
		t.Fatal("zero-replica design accepted")
	}
	if st := g.Stats(); st.Solves != 0 {
		t.Fatalf("invalid design reached the evaluator: %+v", st)
	}
}

func TestSweepBoundsFilterIncrementally(t *testing.T) {
	ev := paperEvaluator(t)
	g, err := New(ev, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec := fullSpace(2)
	spec.Scatter = &ScatterBounds{MaxASP: 0.2, MinCOA: 0.9962}
	total, kept, err := sweepAll(context.Background(), g, spec)
	if err != nil {
		t.Fatal(err)
	}
	var want []Report
	for _, r := range evaluateSerially(t, ev, namedDesigns(spec)) {
		if spec.Scatter.Satisfied(r) {
			want = append(want, r)
		}
	}
	if !slices.Equal(servedAll(kept), servedAll(want)) {
		t.Fatalf("kept %d results, want %d", len(kept), len(want))
	}
	if total != 16 {
		t.Fatalf("total = %d, want 16", total)
	}
	if len(want) == 0 || len(want) == 16 {
		t.Fatalf("bounds kept %d of 16, want a strict subset", len(want))
	}
}

// paperRegion evaluates the paper's five designs (D1..D5) and returns
// the names of those ok keeps, in order.
func paperRegion(t *testing.T, ok func(Report) bool) []string {
	t.Helper()
	g, err := New(paperEvaluator(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range paperdata.Designs() {
		r, err := g.EvaluateSpecCtx(context.Background(), d.Spec())
		if err != nil {
			t.Fatal(err)
		}
		if ok(r) {
			names = append(names, r.Name)
		}
	}
	return names
}

// TestEquation3Regions reproduces the paper's §IV-A region results:
// region 1 (phi 0.2, psi 0.9962) selects D4 and D5; region 2 (phi 0.1,
// psi 0.9961) selects D2 alone.
func TestEquation3Regions(t *testing.T) {
	if got := paperRegion(t, ScatterBounds{MaxASP: 0.2, MinCOA: 0.9962}.Satisfied); !slices.Equal(got, []string{"D4", "D5"}) {
		t.Errorf("region 1 = %v, want [D4 D5]", got)
	}
	if got := paperRegion(t, ScatterBounds{MaxASP: 0.1, MinCOA: 0.9961}.Satisfied); !slices.Equal(got, []string{"D2"}) {
		t.Errorf("region 2 = %v, want [D2]", got)
	}
}

// TestEquation4Regions reproduces the §IV-B multi-metric regions:
// region 1 selects D4 alone; region 2 selects D2 alone.
func TestEquation4Regions(t *testing.T) {
	if got := paperRegion(t, MultiBounds{MaxASP: 0.2, MaxNoEV: 9, MaxNoAP: 2, MaxNoEP: 1, MinCOA: 0.9962}.Satisfied); !slices.Equal(got, []string{"D4"}) {
		t.Errorf("region 1 = %v, want [D4]", got)
	}
	if got := paperRegion(t, MultiBounds{MaxASP: 0.1, MaxNoEV: 7, MaxNoAP: 1, MaxNoEP: 1, MinCOA: 0.9961}.Satisfied); !slices.Equal(got, []string{"D2"}) {
		t.Errorf("region 2 = %v, want [D2]", got)
	}
}

func TestSweepFuncStreams(t *testing.T) {
	g, err := New(paperEvaluator(t), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var streamed int
	var progressed int
	total, err := g.Sweep(context.Background(), fullSpace(2), func(Report) error {
		streamed++
		return nil
	}, func(done, total int) {
		if progressed++; done != progressed || total != 16 {
			t.Errorf("progress(%d, %d) after %d evaluations, want (%d, 16)", done, total, progressed, progressed)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 16 || streamed != 16 || progressed != 16 {
		t.Fatalf("total = %d, streamed = %d, progressed = %d, want 16/16/16", total, streamed, progressed)
	}

	sentinel := errors.New("enough")
	if _, err := g.Sweep(context.Background(), fullSpace(2), func(Report) error {
		return sentinel
	}, nil); !errors.Is(err, sentinel) {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

func TestSweepHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := New(paperEvaluator(t), Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sweepAll(ctx, g, fullSpace(4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSweepSpecValidate(t *testing.T) {
	bad := classicSpace(3, 1)
	if err := bad.Validate(); err == nil {
		t.Fatal("inverted range accepted")
	}
	if err := (SweepSpec{}).Validate(); err == nil {
		t.Fatal("tierless spec accepted")
	}
	if n := classicSpace(0, 0).SweepSize(); n != 1 {
		t.Fatalf("zero-range classic spec size = %d, want 1", n)
	}
	if n := fullSpace(4).SweepSize(); n != 256 {
		t.Fatalf("1..4 classic spec size = %d, want 256", n)
	}
	for name, spec := range map[string]SweepSpec{
		"duplicate role":    {Tiers: []TierSweep{{Role: "web"}, {Role: "web"}}},
		"unknown role":      {Tiers: []TierSweep{{Role: "cache"}}},
		"unknown variant":   {Tiers: []TierSweep{{Role: "web", Variants: []string{"iis"}}}},
		"duplicate variant": {Tiers: []TierSweep{{Role: "web", Variants: []string{"webalt", "webalt"}}}},
		"variant names own role": {Tiers: []TierSweep{
			{Role: "web", Variants: []string{"", "web"}}}},
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	hetero := SweepSpec{Tiers: []TierSweep{
		{Role: "dns"},
		{Role: "web", Min: 1, Max: 2, Variants: []string{"", "webalt"}},
		{Role: "app"},
		{Role: "db"},
	}}
	if err := hetero.Validate(); err != nil {
		t.Fatalf("heterogeneous spec rejected: %v", err)
	}
	if n := hetero.SweepSize(); n != 4 {
		t.Fatalf("heterogeneous size = %d, want 4 (2 counts x 2 stacks)", n)
	}

	// The engine does not validate the designs a sweep enumerates: every
	// design of a valid SweepSpec is a valid DesignSpec by construction.
	// Roles cannot repeat, so the catalog's five stacks bound a valid
	// sweep at five tiers, and eight tiers (redpatchd's -max-tiers
	// default) are a SweepSpec error.
	all := []TierSweep{{Role: "dns"}, {Role: "web"}, {Role: "app"}, {Role: "db"}, {Role: "webalt"}}
	for name, tc := range map[string]struct {
		spec  SweepSpec
		valid bool
	}{
		"min 0":              {SweepSpec{Tiers: []TierSweep{{Role: "web", Min: 0, Max: 2}}}, true},
		"max below min":      {SweepSpec{Tiers: []TierSweep{{Role: "web", Min: 3, Max: 0}}}, true},
		"variant is role":    {SweepSpec{Tiers: []TierSweep{{Role: "web", Max: 2, Variants: []string{"web", "webalt"}}}}, true},
		"empty variant":      {SweepSpec{Tiers: []TierSweep{{Role: "app", Max: 2, Variants: []string{""}}}}, true},
		"webalt":             {SweepSpec{Tiers: []TierSweep{{Role: "webalt", Max: 2}, {Role: "db", Variants: []string{"webalt"}}}}, true},
		"one tier":           {SweepSpec{Tiers: all[:1]}, true},
		"five tiers":         {SweepSpec{Tiers: all}, true},
		"heterogeneous":      {hetero, true},
		"eight tiers":        {SweepSpec{Tiers: append(all[:5:5], all[:3]...)}, false},
		"classic 1..3 space": {fullSpace(3), true},
	} {
		if err := tc.spec.Validate(); (err == nil) != tc.valid {
			t.Errorf("%s: Validate = %v, want valid %v", name, err, tc.valid)
			continue
		}
		if !tc.valid {
			continue
		}
		for _, d := range tc.spec.Designs() {
			if err := d.Validate(); err != nil {
				t.Errorf("%s enumerates an invalid design: %v", name, err)
			}
		}
	}
}

func TestSweepSurfacesEvaluationError(t *testing.T) {
	failing := evaluatorFunc(func(s paperdata.DesignSpec) (redundancy.Result, error) {
		if s.CanonicalName() == "2d1w1a1b" {
			return redundancy.Result{}, errors.New("synthetic failure")
		}
		return redundancy.Result{Spec: s}, nil
	})
	g, err := New(failing, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sweepAll(context.Background(), g, fullSpace(2)); err == nil {
		t.Fatal("evaluation error swallowed")
	}
}

type evaluatorFunc func(paperdata.DesignSpec) (redundancy.Result, error)

func (f evaluatorFunc) EvaluateSpecContext(_ context.Context, s paperdata.DesignSpec) (redundancy.Result, redundancy.Provenance, error) {
	r, err := f(s)
	return r, redundancy.Provenance{}, err
}

func (f evaluatorFunc) EvaluatePatched(context.Context, paperdata.DesignSpec, []int) (redundancy.RolloutResult, redundancy.Provenance, error) {
	return redundancy.RolloutResult{}, redundancy.Provenance{}, errors.New("evaluatorFunc scores atomic designs only")
}

// TestEvaluatorPanicDoesNotWedgeCacheKey pins the singleflight panic
// path: a panicking solve must surface as an error and later calls for
// the same tuple must not block forever on a never-closed ready channel.
func TestEvaluatorPanicDoesNotWedgeCacheKey(t *testing.T) {
	g, err := New(evaluatorFunc(func(paperdata.DesignSpec) (redundancy.Result, error) {
		panic("synthetic solver bug")
	}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := paperdata.BaseDesign()
	if _, err := g.EvaluateSpecCtx(context.Background(), d.Spec()); err == nil {
		t.Fatal("panic not surfaced as an error")
	}
	done := make(chan error, 1)
	go func() {
		_, err := g.EvaluateSpecCtx(context.Background(), d.Spec())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("second call returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second Evaluate blocked on the wedged cache key")
	}
	// Failures are evicted, not memoized: the second call re-solved.
	if st := g.Stats(); st.Solves != 2 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 2 solves / 0 hits", st)
	}
}

// TestTransientErrorIsNotMemoized pins the eviction of failed entries: a
// solve that fails once must not poison its design tuple forever.
func TestTransientErrorIsNotMemoized(t *testing.T) {
	inner := paperEvaluator(t)
	var failed atomic.Bool
	g, err := New(evaluatorFunc(func(s paperdata.DesignSpec) (redundancy.Result, error) {
		if failed.CompareAndSwap(false, true) {
			return redundancy.Result{}, errors.New("transient failure")
		}
		r, _, err := inner.EvaluateSpecContext(context.Background(), s)
		return r, err
	}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := paperdata.BaseDesign()
	if _, err := g.EvaluateSpecCtx(context.Background(), d.Spec()); err == nil {
		t.Fatal("first call should fail")
	}
	r, err := g.EvaluateSpecCtx(context.Background(), d.Spec())
	if err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	if r.COA <= 0 {
		t.Fatalf("implausible retried result: %+v", r)
	}
}

// TestSpecCacheKeysDistinguishVariants pins the v2 cache identity: a web
// tier and its webalt deployment with identical replica counts must never
// share a cache slot, a mixed heterogeneous tier is a third identity, and
// renaming any of them stays a cache hit.
func TestSpecCacheKeysDistinguishVariants(t *testing.T) {
	c := &countingEvaluator{inner: paperEvaluator(t)}
	g, err := New(c, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	classic := func(web ...paperdata.TierSpec) paperdata.DesignSpec {
		tiers := []paperdata.TierSpec{{Role: paperdata.RoleDNS, Replicas: 1}}
		tiers = append(tiers, web...)
		tiers = append(tiers,
			paperdata.TierSpec{Role: paperdata.RoleApp, Replicas: 1},
			paperdata.TierSpec{Role: paperdata.RoleDB, Replicas: 1})
		return paperdata.DesignSpec{Name: "d", Tiers: tiers}
	}
	plain := classic(paperdata.TierSpec{Role: paperdata.RoleWeb, Replicas: 2})
	alt := classic(paperdata.TierSpec{Role: paperdata.RoleWeb, Replicas: 2, Variant: paperdata.RoleWebAlt})
	mixed := classic(
		paperdata.TierSpec{Role: paperdata.RoleWeb, Replicas: 1},
		paperdata.TierSpec{Role: paperdata.RoleWeb, Replicas: 1, Variant: paperdata.RoleWebAlt})

	rPlain, err := g.EvaluateSpecCtx(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	rAlt, err := g.EvaluateSpecCtx(context.Background(), alt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.EvaluateSpecCtx(context.Background(), mixed); err != nil {
		t.Fatal(err)
	}
	if n := c.calls.Load(); n != 3 {
		t.Fatalf("three distinct variant identities performed %d solves, want 3", n)
	}
	if rPlain.After.NoEV == rAlt.After.NoEV && rPlain.After.ASP == rAlt.After.ASP {
		t.Fatal("variant deployment evaluated identically to the base stack")
	}

	renamed := alt
	renamed.Name = "renamed"
	r, err := g.EvaluateSpecCtx(context.Background(), renamed)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.calls.Load(); n != 3 {
		t.Fatalf("renamed spec re-solved: %d solves", n)
	}
	if r.Spec.Name != "renamed" {
		t.Fatalf("cache hit lost the requested name: %q", r.Spec.Name)
	}
}

// TestColdSweepTierSolveBudget pins the factored-sweep scaling contract:
// a cold sweep over the 3^4 replica space (81 designs) performs exactly
// one tier solve per (role, replica-count) pair — the sum of the range
// sizes, 12 — instead of one network solve per design point, and never
// touches the SRN path. Asserted through the engine's merged counters;
// the tier memo solves under its lock, so the count is exact on any
// number of workers.
func TestColdSweepTierSolveBudget(t *testing.T) {
	ev, err := redundancy.NewEvaluator(redundancy.Options{}) // cold: fresh counters
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(ev, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	spec := fullSpace(3)
	total, _, err := sweepAll(context.Background(), g, spec)
	if err != nil {
		t.Fatal(err)
	}
	if total != 81 {
		t.Fatalf("total = %d, want 81", total)
	}
	st := g.Stats()
	if st.Solves != 81 || st.FactoredSolves != 81 {
		t.Errorf("solves = %d, factored = %d; want 81 of each", st.Solves, st.FactoredSolves)
	}
	var sumRanges uint64
	for _, tier := range spec.Tiers {
		sumRanges += uint64(tier.Max - tier.Min + 1)
	}
	if st.TierSolves != sumRanges {
		t.Errorf("cold 3^4 sweep performed %d tier solves, want one per (role, replicas) pair = %d",
			st.TierSolves, sumRanges)
	}
	// Every design reads 4 factors; all but the 12 misses must hit.
	if want := uint64(81*4) - st.TierSolves; st.TierFactorHits != want {
		t.Errorf("tier factor hits = %d, want %d", st.TierFactorHits, want)
	}
}

// TestTracedColdSweepSpanCount pins what tracing records for a cold
// 3^4 sweep on one worker, where the memo misses fall on the same
// designs every run: the sweep root and a solver span only where a
// design misses the tier-factor or security memo — no span per design:
// 24 spans in all. Every solver span hangs off the sweep's span, the
// tier-factor solves through the availability solve that ran them. The
// sweep span carries the aggregate of its 81 designs: all memo misses,
// with the security and tier-factor memo hits and solves behind them.
// A span per design, or a solver span on a memo hit, changes these
// counts.
func TestTracedColdSweepSpanCount(t *testing.T) {
	ev, err := redundancy.NewEvaluator(redundancy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(ev, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var ended []trace.SpanData
	tr := trace.New(trace.Options{OnEnd: func(d trace.SpanData) {
		mu.Lock()
		ended = append(ended, d)
		mu.Unlock()
	}})
	total, _, err := sweepAll(trace.WithTracer(context.Background(), tr), g, fullSpace(3))
	if err != nil {
		t.Fatal(err)
	}
	if total != 81 {
		t.Fatalf("total = %d, want 81", total)
	}
	spans := map[string]int{}
	ids := map[string]string{} // span ID -> name
	var sweep trace.SpanData
	for _, d := range ended {
		spans[d.Name]++
		ids[d.SpanID] = d.Name
		if d.Name == "engine.sweep" {
			sweep = d
		}
	}
	want := map[string]int{
		"engine.sweep":            1,
		"availability.solve":      9,
		"availability.tierfactor": 12,
		"security.evaluate":       2,
	}
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("traced cold 3^4 sweep recorded spans %v, want %v", spans, want)
	}
	parents := map[string]string{
		"availability.solve":      "engine.sweep",
		"security.evaluate":       "engine.sweep",
		"availability.tierfactor": "availability.solve",
	}
	for _, d := range ended {
		if want, ok := parents[d.Name]; ok && ids[d.ParentID] != want {
			t.Errorf("%s span's parent is %q, want %s", d.Name, ids[d.ParentID], want)
		}
	}
	// Every design misses the memo; the two security models are built
	// by the first design and read from its shape by the other 80, and
	// each design reads four tier factors, 12 of them solved.
	aggregate := map[string]int{
		"items":              81,
		"errors":             0,
		"memo_hits":          0,
		"memo_inflight":      0,
		"memo_misses":        81,
		"security_memo_hits": 160,
		"security_solves":    2,
		"tier_memo_hits":     81*4 - 12,
		"tier_solves":        12,
	}
	for key, want := range aggregate {
		if v, ok := sweep.Attr(key); !ok || v != want {
			t.Errorf("engine.sweep %s = %v, want %d", key, v, want)
		}
	}
	for _, key := range []string{"queue_wait_ns_p50", "queue_wait_ns_max", "evaluate_ns"} {
		if v, ok := sweep.Attr(key); !ok {
			t.Errorf("engine.sweep carries no %s", key)
		} else if ns, _ := v.(int64); ns < 0 {
			t.Errorf("engine.sweep %s = %v, want a duration in ns", key, v)
		}
	}
	p50, _ := sweep.Attr("queue_wait_ns_p50")
	longest, _ := sweep.Attr("queue_wait_ns_max")
	if a, b := p50.(int64), longest.(int64); a > b {
		t.Errorf("queue wait p50 %d ns above its max %d ns", a, b)
	}
}

// TestTracedCancelledSweepAggregate pins the sweep span's aggregate
// when the sweep is cancelled partway: on one worker, the tenth design's
// solve cancels the context, so the worker stops after it and the span
// counts ten designs, each a memo miss. An item a worker picks up after
// the cancellation fails before it reaches the memo; it counts as an
// item and an error, but as no memo outcome and no queue wait.
func TestTracedCancelledSweepAggregate(t *testing.T) {
	inner := paperEvaluator(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var solved atomic.Int64
	g, err := New(evaluatorFunc(func(s paperdata.DesignSpec) (redundancy.Result, error) {
		if solved.Add(1) == 10 {
			cancel()
		}
		r, _, err := inner.EvaluateSpecContext(context.Background(), s)
		return r, err
	}), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sweep trace.SpanData
	tr := trace.New(trace.Options{OnEnd: func(d trace.SpanData) {
		if d.Name == "engine.sweep" {
			sweep = d
		}
	}})
	if _, _, err := sweepAll(trace.WithTracer(ctx, tr), g, fullSpace(3)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	for key, want := range map[string]int{
		"items": 10, "errors": 0, "memo_hits": 0, "memo_inflight": 0, "memo_misses": 10,
	} {
		if v, ok := sweep.Attr(key); !ok || v != want {
			t.Errorf("cancelled engine.sweep %s = %v, want %d", key, v, want)
		}
	}

	var stats sweepStats
	stats.add(itemFacts{cache: memoMiss, wait: time.Millisecond}, nil)
	stats.add(itemFacts{}, context.Canceled)
	if stats.items != 2 || stats.errors != 1 || stats.cache != [4]int{memoMiss: 1} || len(stats.waits) != 1 {
		t.Errorf("a served miss and an unserved item aggregate to %+v, want 2 items, 1 error, 1 miss and 1 wait", stats)
	}
}

// TestRepeatRolloutSweepServedFromMemo: an 8-wave rolling sweep streams
// every point, and repeating it serves each point from the rollout memo
// without a single new rollout solve.
func TestRepeatRolloutSweepServedFromMemo(t *testing.T) {
	ev, err := redundancy.NewEvaluator(redundancy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(ev, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec := paperdata.Design{Name: "rs", DNS: 2, Web: 3, App: 2, DB: 2}.Spec()
	sched := redundancy.RolloutSchedule{Strategy: redundancy.RolloutRolling, Steps: 8}
	points, err := sched.Points(len(spec.Tiers))
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		t.Helper()
		var n atomic.Int64
		_, err := g.RolloutSweep(context.Background(), spec, sched, func(RolloutReport) error {
			n.Add(1)
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if int(n.Load()) != len(points) {
			t.Fatalf("streamed %d points, want %d", n.Load(), len(points))
		}
	}
	sweep()
	first := g.Stats()
	if first.RolloutSolves == 0 {
		t.Fatal("cold rollout sweep solved nothing")
	}
	sweep()
	st := g.Stats()
	if st.RolloutSolves != first.RolloutSolves {
		t.Errorf("repeat rollout sweep performed %d rollout solves, want 0", st.RolloutSolves-first.RolloutSolves)
	}
	if hits := st.RolloutHits - first.RolloutHits; hits != uint64(len(points)) {
		t.Errorf("repeat rollout sweep served %d points from the memo, want %d", hits, len(points))
	}
}

// TestStatsWithoutSolverProvider: engines over evaluators that do not
// expose solver counters report zeros rather than garbage.
func TestStatsWithoutSolverProvider(t *testing.T) {
	ev := &countingEvaluator{inner: paperEvaluator(t)}
	g, err := New(ev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.EvaluateSpecCtx(context.Background(), paperdata.BaseDesign().Spec()); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Solves != 1 {
		t.Errorf("solves = %d, want 1", st.Solves)
	}
	if st.FactoredSolves != 0 || st.TierSolves != 0 || st.TierFactorHits != 0 {
		t.Errorf("wrapped evaluator without SolverStats leaked counters: %+v", st)
	}
}

// TestSweepCancelDropsQueuedSpecs: a cancelled sweep must stop issuing
// queued designs to the evaluator — only the design already in flight
// at cancellation runs; the rest of the space is dropped before a
// worker ever picks it up, so the pool frees immediately instead of
// cycling the dead request's backlog.
func TestSweepCancelDropsQueuedSpecs(t *testing.T) {
	ce := &countingEvaluator{inner: paperEvaluator(t), gate: make(chan struct{})}
	g, err := New(ce, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, _, err := sweepAll(ctx, g, fullSpace(3)) // 81 designs
		done <- err
	}()

	// Wait for the single worker to start design #1, then pull the plug
	// while it is blocked inside the evaluator.
	deadline := time.Now().Add(5 * time.Second)
	for ce.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("evaluator never called")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(ce.gate) // release the in-flight solve

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("sweep err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled sweep never returned")
	}
	if n := ce.calls.Load(); n != 1 {
		t.Fatalf("evaluator ran %d designs after cancellation, want 1 (queued specs must be dropped)", n)
	}
}
