package redpatch

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"redpatch/internal/fleet"
)

// TestPlanCampaignSurface pins the /api/v2/plan-campaign payload
// contract: deferred and residualAsp are always present (never null),
// totalRounds matches, and a window too small for any OS patch actually
// produces deferrals.
func TestPlanCampaignSurface(t *testing.T) {
	s, _ := caseStudy(t)

	plan, err := s.PlanCampaign("app", 35*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalRounds != len(plan.Rounds) || plan.TotalRounds < 2 {
		t.Fatalf("TotalRounds = %d with %d rounds, want a split campaign", plan.TotalRounds, len(plan.Rounds))
	}
	if len(plan.ResidualASP) != plan.TotalRounds+1 {
		t.Fatalf("residualAsp %d entries, want %d", len(plan.ResidualASP), plan.TotalRounds+1)
	}
	for i := 1; i < len(plan.ResidualASP); i++ {
		if plan.ResidualASP[i] > plan.ResidualASP[i-1] {
			t.Errorf("residualAsp grew at %d", i)
		}
	}
	data, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"totalRounds"`, `"deferred":[`, `"residualAsp":[`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("payload missing %s: %s", key, data)
		}
	}
	if strings.Contains(string(data), `"deferred":null`) {
		t.Errorf("deferred serialized as null: %s", data)
	}

	// A 24-minute window fits app service patches but no 10-minute OS
	// patch: deferrals must surface with a non-zero residual floor.
	tight, err := s.PlanCampaign("app", 24*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(tight.Deferred) == 0 {
		t.Fatal("24-minute window should defer the OS patches")
	}
	// The deferred OS flaws happen not to be remotely exploitable, so
	// the residual floor may legitimately reach zero; the trajectory
	// itself must still be well-formed and monotone.
	if len(tight.ResidualASP) != tight.TotalRounds+1 {
		t.Errorf("tight residualAsp %d entries, want %d", len(tight.ResidualASP), tight.TotalRounds+1)
	}
	for i := 1; i < len(tight.ResidualASP); i++ {
		if tight.ResidualASP[i] > tight.ResidualASP[i-1] {
			t.Errorf("tight residualAsp grew at %d", i)
		}
	}
}

// TestFleetEngine exercises the facade adapter against the fleet
// scheduler end to end, and checks the memoized engine serves repeated
// spec shapes from cache.
func TestFleetEngine(t *testing.T) {
	s, _ := caseStudy(t)
	resolve := func(string) (fleet.Engine, error) { return s.FleetEngine(), nil }

	systems := make([]fleet.System, 6)
	for i := range systems {
		systems[i] = fleet.System{
			ID:   string(rune('a' + i)),
			Role: "app",
			Tiers: []TierSpec{
				{Role: "dns", Replicas: 1}, {Role: "web", Replicas: 1 + i%2},
				{Role: "app", Replicas: 2}, {Role: "db", Replicas: 1},
			},
			WindowMinutes: 60,
		}
	}
	before := s.EngineStats()
	plan, err := fleet.PlanFleet(context.Background(), systems, resolve, fleet.PlanOptions{MaxConcurrent: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Systems) != len(systems) {
		t.Fatalf("planned %d systems, want %d", len(plan.Systems), len(systems))
	}
	after := s.EngineStats()
	// Six systems over two distinct shapes: at most two fresh solves,
	// the rest served by the engine cache.
	if solves := after.Solves - before.Solves; solves > 2 {
		t.Errorf("engine solves grew by %d, want <= 2 (two distinct shapes)", solves)
	}
	if hits := after.Hits - before.Hits; hits < 4 {
		t.Errorf("engine hits grew by %d, want >= 4", hits)
	}

	sum, err := fleet.Simulate(context.Background(), plan, fleet.SimOptions{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Windows != len(plan.Windows) || sum.RolledBack != 0 {
		t.Errorf("summary = %+v, want %d clean windows", sum, len(plan.Windows))
	}
}

// TestFleetPlan1000SolvesEachShapeOnce: planning a 1,000-system fleet
// over benchFleet's four design shapes costs four engine solves, one per
// shape; the other 996 evaluations are memo hits. Each solve is one
// factored availability solve, so an adapter that bypassed the engine
// memo shows here as 1,000.
func TestFleetPlan1000SolvesEachShapeOnce(t *testing.T) {
	s, err := NewCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(string) (fleet.Engine, error) { return s.FleetEngine(), nil }
	plan, err := fleet.PlanFleet(context.Background(), benchFleet(1000, 0), resolve, fleet.PlanOptions{MaxConcurrent: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Systems) != 1000 || len(plan.Windows) == 0 {
		t.Fatalf("plan: %d systems, %d windows; want 1000 and at least one", len(plan.Systems), len(plan.Windows))
	}
	st := s.EngineStats()
	if st.Solves != 4 || st.FactoredSolves != 4 || st.Hits != 996 {
		t.Errorf("engine solves/factored/hits = %d/%d/%d, want 4/4/996", st.Solves, st.FactoredSolves, st.Hits)
	}
}
