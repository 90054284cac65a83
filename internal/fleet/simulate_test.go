package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

func perfectFleet(t *testing.T) (Plan, Resolver) {
	t.Helper()
	resolve := testResolver(t)
	a := testSystem("a")
	a.WindowMinutes = 35 // multi-round campaign
	b := testSystem("b")
	b.Priority = 1.5
	plan, err := PlanFleet(context.Background(), []System{a, b}, resolve, PlanOptions{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	return plan, resolve
}

// TestSimulatePerfectMatchesPlan is the dormant-rollback property: with
// every success probability at 1 the simulation must replay the plan's
// schedule window for window and reproduce the planner's residual-ASP
// trajectory bit for bit.
func TestSimulatePerfectMatchesPlan(t *testing.T) {
	plan, _ := perfectFleet(t)
	var events []Event
	sum, err := Simulate(context.Background(), plan, SimOptions{Seed: 42}, func(ev Event) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(plan.Windows) {
		t.Fatalf("events = %d, want the plan's %d windows", len(events), len(plan.Windows))
	}
	if sum.RolledBack != 0 || sum.DeferredRounds != 0 || sum.Succeeded != len(events) {
		t.Fatalf("perfect summary = %+v, want all succeeded", sum)
	}
	if sum.TotalDowntimeMinutes != plan.TotalDowntimeMinutes {
		t.Errorf("downtime %v, plan %v", sum.TotalDowntimeMinutes, plan.TotalDowntimeMinutes)
	}
	trajectories := map[string][]float64{}
	for _, sp := range plan.Systems {
		trajectories[sp.System.ID] = sp.ResidualASP
	}
	completed := map[string]int{}
	for i, ev := range events {
		w := plan.Windows[i]
		if ev.SystemID != w.SystemID || ev.Cycle != w.Cycle || ev.Round != w.Round {
			t.Fatalf("event %d = %s/c%d/r%d, plan window = %s/c%d/r%d",
				i, ev.SystemID, ev.Cycle, ev.Round, w.SystemID, w.Cycle, w.Round)
		}
		if ev.DowntimeMinutes != w.DowntimeMinutes {
			t.Errorf("event %d downtime %v, plan %v", i, ev.DowntimeMinutes, w.DowntimeMinutes)
		}
		completed[ev.SystemID]++
		// Bit-identical: both sides compose the residual set through the
		// same canonical CompositeASP.
		want := trajectories[ev.SystemID][completed[ev.SystemID]]
		if ev.SystemResidualASP != want {
			t.Errorf("event %d residual %v != plan trajectory %v", i, ev.SystemResidualASP, want)
		}
	}
}

// TestSimulateAllFailures drives the rollback branch deterministically:
// a success probability of ~0 fails every window, so each round burns
// its attempt budget and defers.
func TestSimulateAllFailures(t *testing.T) {
	resolve := testResolver(t)
	s := testSystem("a")
	s.SuccessProbability = 1e-12
	s.RollbackMinutes = 15
	plan, err := PlanFleet(context.Background(), []System{s}, resolve, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rounds := len(plan.Systems[0].Rounds)
	if rounds == 0 {
		t.Fatal("expected at least one round")
	}
	var events []Event
	sum, err := Simulate(context.Background(), plan, SimOptions{Seed: 7, MaxAttempts: 3}, func(ev Event) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Succeeded != 0 || sum.RolledBack != rounds*3 || sum.DeferredRounds != rounds {
		t.Fatalf("summary = %+v, want %d rollbacks and %d deferred rounds", sum, rounds*3, rounds)
	}
	initial := plan.Systems[0].ResidualASP[0]
	for i, ev := range events {
		if ev.Attempt != i%3+1 {
			t.Errorf("event %d: attempt %d, want %d", i, ev.Attempt, i%3+1)
		}
		switch {
		case ev.Attempt < 3:
			if ev.Outcome.String() != "rolledBack" || len(ev.Requeued) == 0 {
				t.Errorf("event %d: %+v, want rolledBack with requeued CVEs", i, ev)
			}
		default:
			if ev.Outcome.String() != "deferred" || len(ev.DeferredCVEs) == 0 {
				t.Errorf("event %d: %+v, want deferred CVEs", i, ev)
			}
		}
		// Nothing ever lands, so the residual is pinned at the initial
		// attack surface — and never increases.
		if ev.SystemResidualASP != initial {
			t.Errorf("event %d: residual %v, want initial %v", i, ev.SystemResidualASP, initial)
		}
		// The failed window pays the half-work + rollback + reboot cost,
		// which differs from the success-branch downtime.
		if ev.DowntimeMinutes == plan.Windows[0].DowntimeMinutes {
			t.Errorf("event %d: failed downtime equals success downtime %v", i, ev.DowntimeMinutes)
		}
		if ev.Availability <= 0 || ev.Availability >= 1 {
			t.Errorf("event %d: availability %v", i, ev.Availability)
		}
	}
}

// TestSimulateMixedMonotone checks the headline stream invariant under
// genuine randomness: the fleet residual never increases.
func TestSimulateMixedMonotone(t *testing.T) {
	resolve := testResolver(t)
	a := testSystem("a")
	a.WindowMinutes = 35
	a.SuccessProbability = 0.5
	a.RollbackMinutes = 10
	b := testSystem("b")
	b.SuccessProbability = 0.5
	b.Priority = 2
	plan, err := PlanFleet(context.Background(), []System{a, b}, resolve, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	last := 2.0
	rolledBack := 0
	var events []Event
	sum, err := Simulate(context.Background(), plan, SimOptions{Seed: 3}, func(ev Event) error {
		if ev.ResidualASP > last {
			t.Errorf("fleet residual grew: %v -> %v at seq %d", last, ev.ResidualASP, ev.Seq)
		}
		last = ev.ResidualASP
		if ev.Outcome.String() == "rolledBack" {
			rolledBack++
		}
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rolledBack == 0 {
		t.Error("seed 3 at p=0.5 should roll back at least once")
	}
	if sum.FinalResidualASP != last {
		t.Errorf("summary residual %v, last event %v", sum.FinalResidualASP, last)
	}

	// Same seed, same stream — byte for byte.
	var replay []Event
	if _, err := Simulate(context.Background(), plan, SimOptions{Seed: 3}, func(ev Event) error {
		replay = append(replay, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(events)
	want, _ := json.Marshal(replay)
	if string(got) != string(want) {
		t.Error("same seed produced a different stream")
	}
}

func TestSimulateAborts(t *testing.T) {
	plan, _ := perfectFleet(t)
	if _, err := Simulate(context.Background(), Plan{}, SimOptions{}, nil); err == nil {
		t.Error("empty plan should fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Simulate(ctx, plan, SimOptions{}, nil); err == nil {
		t.Error("cancelled context should fail")
	}
	sentinel := context.DeadlineExceeded
	if _, err := Simulate(context.Background(), plan, SimOptions{}, func(Event) error { return sentinel }); err != sentinel {
		t.Errorf("emit error not propagated: %v", err)
	}
}

// TestSimulateMatchesTryRevertMoments pins the simulator to the
// try-revert model's closed forms over many single-round systems with
// success probability p < 1 and an attempt budget m. Every window
// succeeds independently with probability p, so the mean outage per
// window is Plan.ExpectedDowntime, with per-window variance
// p(1-p)(T-F)^2 for success and failure outages T and F. A round takes
// N = min(Geometric(p), m) attempts: E[N] = sum_{k<m} q^k and
// E[N^2] = sum_{k<m} (2k+1) q^k with q = 1-p. Both sample means must lie
// within z standard errors of their expectation; z = 4 bounds the chance
// that a correct simulator fails either check below 1.3e-4.
func TestSimulateMatchesTryRevertMoments(t *testing.T) {
	const (
		systems = 2000
		p       = 0.4
		m       = 3
		z       = 4.0
		seed    = 1
	)
	fleet := make([]System, systems)
	for i := range fleet {
		s := testSystem(fmt.Sprintf("s%03d", i))
		s.WindowMinutes = 600 // one round per campaign
		s.SuccessProbability = p
		s.RollbackMinutes = 15
		fleet[i] = s
	}
	plan, err := PlanFleet(context.Background(), fleet, testResolver(t), PlanOptions{MaxConcurrent: systems})
	if err != nil {
		t.Fatal(err)
	}
	round := plan.Systems[0].campaign.Rounds[0]
	for _, sp := range plan.Systems {
		if len(sp.campaign.Rounds) != 1 || !reflect.DeepEqual(sp.campaign.Rounds[0], round) {
			t.Fatalf("system %s: want the same single round as every other system", sp.System.ID)
		}
	}
	if !round.RequiresPatch() {
		t.Fatal("the round patches nothing")
	}

	var windows int
	var downtime float64
	if _, err := Simulate(context.Background(), plan, SimOptions{Seed: seed, MaxConcurrent: systems, MaxAttempts: m}, func(ev Event) error {
		windows++
		downtime += ev.DowntimeMinutes
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	att := fleet[0].attempt()
	success, failure := round.TotalDowntime().Minutes(), round.FailedDowntime(att).Minutes()
	wantDowntime := round.ExpectedDowntime(att).Minutes()
	sdDowntime := math.Sqrt(p*(1-p)) * math.Abs(success-failure)
	if got, bound := downtime/float64(windows), z*sdDowntime/math.Sqrt(float64(windows)); math.Abs(got-wantDowntime) > bound {
		t.Errorf("mean downtime per window = %.4f min over %d windows, want %.4f ± %.4f", got, windows, wantDowntime, bound)
	}

	q := 1 - p
	var mean, second float64
	for k := 0; k < m; k++ {
		mean += math.Pow(q, float64(k))
		second += float64(2*k+1) * math.Pow(q, float64(k))
	}
	sdAttempts := math.Sqrt(second - mean*mean)
	if got, bound := float64(windows)/systems, z*sdAttempts/math.Sqrt(systems); math.Abs(got-mean) > bound {
		t.Errorf("mean attempts per round = %.4f over %d rounds, want %.4f ± %.4f", got, systems, mean, bound)
	}
}
