package redpatch

// Fleet-scale benchmarks: the scheduler's headline is that a
// 1000-system fleet plans in one request because the memoized engine
// collapses the fleet's design diversity (a handful of spec shapes) to
// a handful of solves, and the try-revert simulator executes whole
// campaigns without touching a model solver at all.

import (
	"context"
	"fmt"
	"testing"

	"redpatch/internal/fleet"
)

// benchFleet builds n systems over four distinct design shapes with
// mixed priorities and windows — the shape diversity a real fleet has,
// at the cache locality the memoized engine exploits.
func benchFleet(n int, successProb float64) []fleet.System {
	shapes := [][]TierSpec{
		{{Role: "dns", Replicas: 1}, {Role: "web", Replicas: 2}, {Role: "app", Replicas: 2}, {Role: "db", Replicas: 1}},
		{{Role: "dns", Replicas: 1}, {Role: "web", Replicas: 3}, {Role: "app", Replicas: 2}, {Role: "db", Replicas: 2}},
		{{Role: "dns", Replicas: 2}, {Role: "web", Replicas: 2}, {Role: "app", Replicas: 3}, {Role: "db", Replicas: 1}},
		{{Role: "dns", Replicas: 1}, {Role: "web", Replicas: 2}, {Role: "app", Replicas: 4}, {Role: "db", Replicas: 2}},
	}
	out := make([]fleet.System, n)
	for i := range out {
		out[i] = fleet.System{
			ID:                 fmt.Sprintf("sys-%04d", i),
			Role:               "app",
			Tiers:              shapes[i%len(shapes)],
			Priority:           1 + float64(i%3)/2,
			WindowMinutes:      60,
			SuccessProbability: successProb,
			RollbackMinutes:    10,
		}
	}
	return out
}

// BenchmarkFleetPlan1000 is the fleet-scale acceptance path: 1000
// systems scheduled in one PlanFleet call. The engine is warmed once
// (four shapes, four solves); iterations price the scheduling itself —
// per-system campaign planning, scoring and window assignment — on the
// all-hits cache path, which is what every steady-state plan request
// pays.
func BenchmarkFleetPlan1000(b *testing.B) {
	s, _ := caseStudy(b)
	resolve := func(string) (fleet.Engine, error) { return s.FleetEngine(), nil }
	systems := benchFleet(1000, 0)
	ctx := context.Background()
	plan, err := fleet.PlanFleet(ctx, systems, resolve, fleet.PlanOptions{MaxConcurrent: 16})
	if err != nil {
		b.Fatal(err)
	}
	if len(plan.Systems) != 1000 || len(plan.Windows) == 0 {
		b.Fatalf("warm plan: %d systems, %d windows", len(plan.Systems), len(plan.Windows))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.PlanFleet(ctx, systems, resolve, fleet.PlanOptions{MaxConcurrent: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetSimulate prices the try-revert execution of a planned
// fleet campaign (100 systems, 90% window success): rollback draws,
// residual-ASP maintenance and event emission, no model solves.
func BenchmarkFleetSimulate(b *testing.B) {
	s, _ := caseStudy(b)
	resolve := func(string) (fleet.Engine, error) { return s.FleetEngine(), nil }
	ctx := context.Background()
	plan, err := fleet.PlanFleet(ctx, benchFleet(100, 0.9), resolve, fleet.PlanOptions{MaxConcurrent: 16})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := fleet.Simulate(ctx, plan, fleet.SimOptions{Seed: int64(i), MaxConcurrent: 16}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if sum.Windows == 0 {
			b.Fatal("no windows executed")
		}
	}
}
