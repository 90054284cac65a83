// Package fleet scales the single-study evaluator to a fleet: a registry
// of modeled systems (scenario + design spec + priority + compliance
// deadline), a scheduler that plans per-system patch campaigns on the
// evaluation engine and orders maintenance windows by
// risk-reduction-per-downtime under a fleet-wide concurrency cap, and a
// campaign simulator that executes plans under the try-revert model —
// each window succeeds with the system's per-patch success probability
// or rolls back, re-queueing its vulnerabilities until an attempt budget
// defers them.
//
// The package sits above the evaluation internals (redundancy, patch,
// vulndb, paperdata) and below the redpatch facade: it never builds
// engines itself, it consumes them through the Engine interface so the
// daemon's scenario registry (or the facade) can resolve one engine per
// named scenario.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"redpatch/internal/engine"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
)

// System is one modeled system of the fleet.
type System struct {
	// ID uniquely names the system in the registry.
	ID string `json:"id"`
	// Scenario names the daemon scenario (policy + schedule) whose
	// engine evaluates the system; empty selects the default scenario.
	Scenario string `json:"scenario,omitempty"`
	// Tiers is the system's design.
	Tiers []paperdata.TierSpec `json:"tiers"`
	// Role is the software stack whose vulnerabilities the campaign
	// patches (the paper plans campaigns per server role); the catalog
	// must know it.
	Role string `json:"role"`
	// Priority weights the system in the scheduler's ordering and the
	// fleet residual; zero defaults to 1 (exemplar agents weight
	// production 1.5, staging 1.2).
	Priority float64 `json:"priority,omitempty"`
	// WindowMinutes is the per-round downtime budget of the system's
	// maintenance windows.
	WindowMinutes float64 `json:"windowMinutes"`
	// DeadlineHours is the compliance deadline on the campaign clock;
	// zero means no deadline.
	DeadlineHours float64 `json:"deadlineHours,omitempty"`
	// SuccessProbability is the chance one maintenance window applies
	// cleanly; zero defaults to 1 (the paper's atomic windows).
	SuccessProbability float64 `json:"successProbability,omitempty"`
	// RollbackMinutes is the revert-procedure duration a failed window
	// pays before the system is back up unpatched.
	RollbackMinutes float64 `json:"rollbackMinutes,omitempty"`
}

// Validate checks the system definition: its design validates as a
// spec would for an evaluation, and its campaign role is a known stack.
func (s System) Validate() error {
	if s.ID == "" {
		return fmt.Errorf("fleet: system with empty id")
	}
	if err := s.Spec().Validate(); err != nil {
		return fmt.Errorf("fleet: %s: %w", s.ID, err)
	}
	if !paperdata.KnownStack(s.Role) {
		return fmt.Errorf("fleet: %s: campaign role %q is not a known stack", s.ID, s.Role)
	}
	if s.Priority < 0 {
		return fmt.Errorf("fleet: %s: negative priority %v", s.ID, s.Priority)
	}
	if s.WindowMinutes <= 0 {
		return fmt.Errorf("fleet: %s: non-positive window %v min", s.ID, s.WindowMinutes)
	}
	if s.DeadlineHours < 0 {
		return fmt.Errorf("fleet: %s: negative deadline %v h", s.ID, s.DeadlineHours)
	}
	if s.SuccessProbability < 0 || s.SuccessProbability > 1 {
		return fmt.Errorf("fleet: %s: success probability %v outside [0, 1]", s.ID, s.SuccessProbability)
	}
	if s.RollbackMinutes < 0 {
		return fmt.Errorf("fleet: %s: negative rollback %v min", s.ID, s.RollbackMinutes)
	}
	return s.attempt().Validate()
}

// Spec is the system's design, named by its ID.
func (s System) Spec() paperdata.DesignSpec {
	return paperdata.DesignSpec{Name: s.ID, Tiers: s.Tiers}
}

// priority returns the effective scheduling weight.
func (s System) priority() float64 {
	if s.Priority == 0 {
		return 1
	}
	return s.Priority
}

// attempt returns the system's try-revert parameters with defaults
// applied.
func (s System) attempt() patch.Attempt {
	p := s.SuccessProbability
	if p == 0 {
		p = 1
	}
	return patch.Attempt{
		SuccessProbability: p,
		Rollback:           time.Duration(s.RollbackMinutes * float64(time.Minute)),
	}
}

// window returns the per-round downtime budget.
func (s System) window() time.Duration {
	return time.Duration(s.WindowMinutes * float64(time.Minute))
}

// Engine is the per-scenario evaluation surface the fleet consumes: the
// memoized design evaluator, read for a system's security summaries
// without a rendered report, and the campaign planner. The redpatch
// facade and the daemon's scenario registry both satisfy it.
type Engine interface {
	EvaluateSummaries(ctx context.Context, spec paperdata.DesignSpec) (before, after engine.Summary, err error)
	PlanCampaign(role string, maxWindow time.Duration) (patch.Campaign, error)
}

// Resolver maps a scenario name to its engine; empty names the default
// scenario. PlanFleet resolves every distinct scenario once per call.
type Resolver func(scenario string) (Engine, error)

// Registry is the concurrency-safe fleet store. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu  sync.RWMutex
	m   map[string]System
	rev uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{m: make(map[string]System)} }

// Register validates every system and then upserts them all by ID, in
// order; one invalid system registers none.
func (r *Registry) Register(systems ...System) error {
	for _, s := range systems {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	r.mu.Lock()
	for _, s := range systems {
		r.m[s.ID] = s
	}
	r.rev++
	r.mu.Unlock()
	return nil
}

// Remove deletes a system, reporting whether it existed.
func (r *Registry) Remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[id]; !ok {
		return false
	}
	delete(r.m, id)
	r.rev++
	return true
}

// Get returns a system by ID.
func (r *Registry) Get(id string) (System, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.m[id]
	return s, ok
}

// List returns every system sorted by ID.
func (r *Registry) List() []System {
	r.mu.RLock()
	out := make([]System, 0, len(r.m))
	for _, s := range r.m {
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of registered systems.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}

// Rev returns the registry's revision counter: it increments on every
// mutation, so persistence layers can dirty-track the registry the same
// way the engine caches track entry counts.
func (r *Registry) Rev() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rev
}

// snapshotVersion guards the registry dump format.
const snapshotVersion = 1

type registrySnapshot struct {
	Version int      `json:"version"`
	Systems []System `json:"systems"`
}

// Snapshot serializes the registry as deterministic versioned JSON.
func (r *Registry) Snapshot() ([]byte, error) {
	return json.Marshal(registrySnapshot{Version: snapshotVersion, Systems: r.List()})
}

// Restore merges a snapshot into the registry: systems whose ID is
// already registered are skipped (live registrations win over the dump),
// while an invalid record or an ID listed twice rejects the whole
// snapshot before any record is applied, mirroring the engine cache's
// all-or-nothing restore. It returns how many systems were added.
func (r *Registry) Restore(data []byte) (int, error) {
	var snap registrySnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return 0, fmt.Errorf("fleet: parse snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return 0, fmt.Errorf("fleet: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	seen := make(map[string]bool, len(snap.Systems))
	for _, s := range snap.Systems {
		if err := s.Validate(); err != nil {
			return 0, fmt.Errorf("fleet: snapshot rejected: %w", err)
		}
		if seen[s.ID] {
			return 0, fmt.Errorf("fleet: snapshot rejected: system %q listed twice", s.ID)
		}
		seen[s.ID] = true
	}
	added := 0
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range snap.Systems {
		if _, ok := r.m[s.ID]; ok {
			continue
		}
		r.m[s.ID] = s
		added++
	}
	if added > 0 {
		r.rev++
	}
	return added, nil
}
