package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"redpatch/internal/engine"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
	"redpatch/internal/redundancy"
)

// testEngine adapts the memoized engine and its evaluator to the
// Engine interface, as the facade's CaseStudy does in the daemon.
type testEngine struct {
	*engine.Engine
	ev *redundancy.Evaluator
}

func (t testEngine) PlanCampaign(role string, maxWindow time.Duration) (patch.Campaign, error) {
	return t.ev.PlanCampaign(role, maxWindow)
}

func testResolver(t *testing.T) Resolver {
	t.Helper()
	ev, err := redundancy.NewEvaluator(redundancy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := engine.New(ev, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine{Engine: g, ev: ev}
	return func(scenario string) (Engine, error) {
		if scenario != "" && scenario != "default" {
			return nil, fmt.Errorf("unknown scenario %q", scenario)
		}
		return eng, nil
	}
}

func testSystem(id string) System {
	return System{
		ID:   id,
		Role: "app",
		Tiers: []paperdata.TierSpec{
			{Role: "dns", Replicas: 1}, {Role: "web", Replicas: 2},
			{Role: "app", Replicas: 2}, {Role: "db", Replicas: 1},
		},
		WindowMinutes: 60,
	}
}

// badDesigns break a system the way only a full spec check catches: a
// stack the catalog lacks, a key separator in a tier role whose variant
// is catalogued, and a campaign role that names no stack.
var badDesigns = map[string]func(*System){
	"unknownStack":    func(s *System) { s.Tiers[1].Variant = "foo" },
	"separatorInRole": func(s *System) { s.Tiers[1].Role, s.Tiers[1].Variant = "web;x", "web" },
	"unknownCampaign": func(s *System) { s.Role = "nosuch" },
}

func TestSystemValidate(t *testing.T) {
	if err := testSystem("ok").Validate(); err != nil {
		t.Errorf("valid system rejected: %v", err)
	}
	mutations := map[string]func(*System){
		"emptyID":       func(s *System) { s.ID = "" },
		"noTiers":       func(s *System) { s.Tiers = nil },
		"emptyTierRole": func(s *System) { s.Tiers[0].Role = "" },
		"zeroReplicas":  func(s *System) { s.Tiers[0].Replicas = 0 },
		"emptyRole":     func(s *System) { s.Role = "" },
		"negPriority":   func(s *System) { s.Priority = -1 },
		"zeroWindow":    func(s *System) { s.WindowMinutes = 0 },
		"negDeadline":   func(s *System) { s.DeadlineHours = -1 },
		"badProb":       func(s *System) { s.SuccessProbability = 1.5 },
		"negRollback":   func(s *System) { s.RollbackMinutes = -1 },
	}
	for name, mut := range badDesigns {
		mutations[name] = mut
	}
	for name, mut := range mutations {
		s := testSystem("x")
		mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestSystemDefaults(t *testing.T) {
	s := testSystem("x")
	if got := s.priority(); got != 1 {
		t.Errorf("default priority = %v, want 1", got)
	}
	if got := s.attempt(); got != (patch.Attempt{SuccessProbability: 1}) {
		t.Errorf("default attempt = %+v, want perfect", got)
	}
	s.Priority = 1.5
	s.SuccessProbability = 0.8
	s.RollbackMinutes = 12
	if got := s.priority(); got != 1.5 {
		t.Errorf("priority = %v", got)
	}
	want := patch.Attempt{SuccessProbability: 0.8, Rollback: 12 * time.Minute}
	if got := s.attempt(); got != want {
		t.Errorf("attempt = %+v, want %+v", got, want)
	}
	spec := s.Spec()
	if spec.Name != "x" || len(spec.Tiers) != 4 || spec.Tiers[1].Replicas != 2 {
		t.Errorf("Spec() = %+v", spec)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(System{}); err == nil {
		t.Error("invalid system should not register")
	}
	if err := r.Register(testSystem("b")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(testSystem("a")); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	list := r.List()
	if list[0].ID != "a" || list[1].ID != "b" {
		t.Errorf("List not sorted: %v, %v", list[0].ID, list[1].ID)
	}
	// Upsert bumps the revision and replaces the record.
	rev := r.Rev()
	s := testSystem("a")
	s.Priority = 2
	if err := r.Register(s); err != nil {
		t.Fatal(err)
	}
	if r.Rev() <= rev {
		t.Error("upsert did not bump the revision")
	}
	if got, _ := r.Get("a"); got.Priority != 2 {
		t.Errorf("upsert lost: %+v", got)
	}
	if !r.Remove("b") || r.Remove("b") {
		t.Error("Remove should succeed once")
	}
	if _, ok := r.Get("b"); ok {
		t.Error("b still present after Remove")
	}
}

func TestRegistrySnapshotRestore(t *testing.T) {
	r := NewRegistry()
	for _, id := range []string{"a", "b"} {
		if err := r.Register(testSystem(id)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	fresh := NewRegistry()
	added, err := fresh.Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 || fresh.Len() != 2 {
		t.Fatalf("restored %d systems into %d, want 2", added, fresh.Len())
	}

	// Live registrations win over the dump.
	partial := NewRegistry()
	s := testSystem("a")
	s.Priority = 9
	if err := partial.Register(s); err != nil {
		t.Fatal(err)
	}
	if added, err = partial.Restore(data); err != nil || added != 1 {
		t.Fatalf("Restore over live = (%d, %v), want (1, nil)", added, err)
	}
	if got, _ := partial.Get("a"); got.Priority != 9 {
		t.Error("restore overwrote a live registration")
	}

	if _, err := fresh.Restore([]byte("{")); err == nil {
		t.Error("corrupt snapshot should fail")
	}
	if _, err := fresh.Restore([]byte(`{"version":99,"systems":[]}`)); err == nil {
		t.Error("version mismatch should fail")
	}
	if _, err := fresh.Restore([]byte(`{"version":1,"systems":[{"id":""}]}`)); err == nil {
		t.Error("invalid record should reject the snapshot")
	}
}

// TestRestoreRejectsInvalidDesigns: a snapshot holding one system whose
// design or campaign role would fail evaluation is rejected whole, and
// the valid systems beside it are not added either.
func TestRestoreRejectsInvalidDesigns(t *testing.T) {
	for name, mut := range badDesigns {
		bad := testSystem("bad")
		mut(&bad)
		data, err := json.Marshal(registrySnapshot{Version: snapshotVersion,
			Systems: []System{testSystem("a"), bad, testSystem("c")}})
		if err != nil {
			t.Fatal(err)
		}
		live := NewRegistry()
		if err := live.Register(testSystem("live")); err != nil {
			t.Fatal(err)
		}
		before, rev := live.List(), live.Rev()
		added, err := live.Restore(data)
		if err == nil || added != 0 {
			t.Errorf("%s: Restore = (%d, %v), want (0, error)", name, added, err)
		}
		if got := live.List(); !reflect.DeepEqual(got, before) || live.Rev() != rev {
			t.Errorf("%s: rejected restore changed the registry: %+v rev %d, want %+v rev %d", name, got, live.Rev(), before, rev)
		}
	}
}

// TestRestoreRejectsDuplicateIDs: a snapshot listing one ID twice is
// rejected whole, before any of its records (here the unknown "b")
// lands in the registry.
func TestRestoreRejectsDuplicateIDs(t *testing.T) {
	src := NewRegistry()
	for _, id := range []string{"a", "b", "c"} {
		if err := src.Register(testSystem(id)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dup := bytes.Replace(data, []byte(`"id":"c"`), []byte(`"id":"a"`), 1)
	if bytes.Equal(dup, data) {
		t.Fatal("snapshot has no system c to rename")
	}

	live := NewRegistry()
	if err := live.Register(testSystem("a")); err != nil {
		t.Fatal(err)
	}
	before, rev := live.List(), live.Rev()
	added, err := live.Restore(dup)
	if err == nil || added != 0 {
		t.Fatalf("Restore of a snapshot listing a twice = (%d, %v), want (0, error)", added, err)
	}
	if got := live.List(); !reflect.DeepEqual(got, before) || live.Rev() != rev {
		t.Errorf("rejected restore changed the registry: %+v rev %d, want %+v rev %d", got, live.Rev(), before, rev)
	}
}

func TestPlanFleet(t *testing.T) {
	resolve := testResolver(t)
	a := testSystem("a") // single 60-minute round
	b := testSystem("b")
	b.WindowMinutes = 35 // forces a multi-round campaign
	b.Priority = 2
	b.DeadlineHours = 1 // cannot hold: at least two monthly cycles
	c := testSystem("c")
	c.Tiers[2].Replicas = 4

	plan, err := PlanFleet(context.Background(), []System{c, a, b}, resolve, PlanOptions{MaxConcurrent: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Systems) != 3 || plan.Systems[0].System.ID != "a" {
		t.Fatalf("systems not sorted by ID: %+v", plan.Systems)
	}
	for _, sp := range plan.Systems {
		if len(sp.Rounds) == 0 {
			t.Errorf("%s: no rounds planned", sp.System.ID)
		}
		if sp.RiskBefore <= sp.RiskAfter {
			t.Errorf("%s: patching did not reduce risk: %v -> %v", sp.System.ID, sp.RiskBefore, sp.RiskAfter)
		}
		if len(sp.ResidualASP) != len(sp.Rounds)+1 {
			t.Errorf("%s: residual trajectory %d entries, want %d", sp.System.ID, len(sp.ResidualASP), len(sp.Rounds)+1)
		}
		for i := 1; i < len(sp.ResidualASP); i++ {
			if sp.ResidualASP[i] > sp.ResidualASP[i-1] {
				t.Errorf("%s: residual grew at round %d", sp.System.ID, i)
			}
		}
		if sp.Score <= 0 {
			t.Errorf("%s: score = %v", sp.System.ID, sp.Score)
		}
	}
	bPlan := plan.Systems[1]
	if len(bPlan.Rounds) < 2 {
		t.Fatalf("b: rounds = %d, want a split campaign", len(bPlan.Rounds))
	}

	// Schedule invariants: cap respected, one window per system per
	// cycle, rounds in order, b's deadline flagged.
	perCycle := map[int]map[string]int{}
	nextRound := map[string]int{}
	var total float64
	for i, w := range plan.Windows {
		if w.Seq != i {
			t.Errorf("window %d: seq %d", i, w.Seq)
		}
		if perCycle[w.Cycle] == nil {
			perCycle[w.Cycle] = map[string]int{}
		}
		perCycle[w.Cycle][w.SystemID]++
		if perCycle[w.Cycle][w.SystemID] > 1 {
			t.Errorf("cycle %d: system %s patched twice", w.Cycle, w.SystemID)
		}
		if len(perCycle[w.Cycle]) > 2 {
			t.Errorf("cycle %d: concurrency cap exceeded", w.Cycle)
		}
		if w.Round != nextRound[w.SystemID] {
			t.Errorf("window %d: %s round %d out of order (want %d)", i, w.SystemID, w.Round, nextRound[w.SystemID])
		}
		nextRound[w.SystemID]++
		if want := float64(w.Cycle) * 720; w.StartHours != want {
			t.Errorf("window %d: start %v, want %v", i, w.StartHours, want)
		}
		total += w.DowntimeMinutes
	}
	if total != plan.TotalDowntimeMinutes {
		t.Errorf("TotalDowntimeMinutes = %v, windows sum %v", plan.TotalDowntimeMinutes, total)
	}
	// b has the highest score weight and a deadline it cannot hold.
	if !bPlan.DeadlineAtRisk || len(plan.DeadlineAtRisk) != 1 || plan.DeadlineAtRisk[0] != "b" {
		t.Errorf("deadline risk = %v (b flagged %v), want exactly b", plan.DeadlineAtRisk, bPlan.DeadlineAtRisk)
	}
	// Every planned round is scheduled.
	for _, sp := range plan.Systems {
		if nextRound[sp.System.ID] != len(sp.Rounds) {
			t.Errorf("%s: scheduled %d of %d rounds", sp.System.ID, nextRound[sp.System.ID], len(sp.Rounds))
		}
	}
}

func TestPlanFleetErrors(t *testing.T) {
	resolve := testResolver(t)
	if _, err := PlanFleet(context.Background(), nil, resolve, PlanOptions{}); err == nil {
		t.Error("empty fleet should fail")
	}
	if _, err := PlanFleet(context.Background(), []System{testSystem("a"), testSystem("a")}, resolve, PlanOptions{}); err == nil {
		t.Error("duplicate IDs should fail")
	}
	bad := testSystem("a")
	bad.Scenario = "nope"
	if _, err := PlanFleet(context.Background(), []System{bad}, resolve, PlanOptions{}); err == nil {
		t.Error("unresolvable scenario should fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PlanFleet(ctx, []System{testSystem("a")}, resolve, PlanOptions{}); err == nil {
		t.Error("cancelled context should fail")
	}
}
