package redundancy

import (
	"context"
	"testing"

	"redpatch/internal/paperdata"
)

// TestWarmMemoAllocations bounds what a design costs once the
// evaluator's tier-factor and security memos hold its models — the
// engine-memo miss a sweep pays per design. The shape lookup keys its
// memo in a stack buffer, security is arithmetic over the shape's
// compiled models, and the network model, its factors and their
// composition live in pooled scratch, so an atomic evaluation and a
// rollout point at known patched counts allocate nothing;
// EvaluateRollout pays only its patched counts and its copy of the
// fractions. The fold, which keys a security model the shape lacks,
// allocates nothing either. The counts are deterministic, so the
// bounds catch a return of per-call quotient rebuilding or per-call
// scratch that timing could not.
func TestWarmMemoAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	ev, err := NewEvaluator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := paperdata.DesignSpec{Name: "het", Tiers: []paperdata.TierSpec{
		{Role: paperdata.RoleDNS, Replicas: 2},
		{Role: paperdata.RoleWeb, Replicas: 3, Variant: paperdata.RoleWebAlt},
		{Role: paperdata.RoleApp, Replicas: 2},
		{Role: paperdata.RoleDB, Replicas: 3},
	}}
	fractions := []float64{0.5, 0.5, 0.5, 0.5}
	// Warm every memo the three paths read.
	if _, _, err := ev.EvaluateSpecContext(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.EvaluateRollout(ctx, spec, fractions); err != nil {
		t.Fatal(err)
	}

	patched, err := PatchedCounts(spec, fractions)
	if err != nil {
		t.Fatal(err)
	}
	var keyb [keyBuf]byte
	var countb [classBuf]int
	for _, tc := range []struct {
		name string
		max  float64
		run  func() error
	}{
		{"FoldRollout", 0, func() error {
			paperdata.FoldRollout(keyb[:0], countb[:0], spec, nil)
			return nil
		}},
		{"shapeOf", 0, func() error {
			_, err := ev.shapeOf(spec)
			return err
		}},
		{"EvaluateSpecContext", 0, func() error {
			_, _, err := ev.EvaluateSpecContext(ctx, spec)
			return err
		}},
		{"EvaluatePatched", 0, func() error {
			_, _, err := ev.EvaluatePatched(ctx, spec, patched)
			return err
		}},
		{"EvaluateRollout", 2, func() error {
			_, err := ev.EvaluateRollout(ctx, spec, fractions)
			return err
		}},
	} {
		var runErr error
		got := testing.AllocsPerRun(100, func() {
			if err := tc.run(); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			t.Fatalf("%s: %v", tc.name, runErr)
		}
		t.Logf("%s: %v allocs", tc.name, got)
		if got > tc.max {
			t.Errorf("%s: %v allocs per call, want at most %v", tc.name, got, tc.max)
		}
	}
}
