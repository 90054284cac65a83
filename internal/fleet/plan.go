package fleet

import (
	"context"
	"fmt"
	"sort"

	"redpatch/internal/patch"
	"redpatch/internal/trace"
	"redpatch/internal/vulndb"
	"redpatch/internal/workpool"
)

// PlanOptions tunes the fleet scheduler.
type PlanOptions struct {
	// MaxConcurrent caps how many systems may hold a maintenance window
	// in the same cycle (default 8): a fleet never patches everything at
	// once.
	MaxConcurrent int
	// CycleHours is the spacing between scheduling cycles (default 720,
	// the paper's monthly cadence).
	CycleHours float64
	// Workers bounds the evaluation fan-out (0 = GOMAXPROCS).
	Workers int
}

func (o PlanOptions) withDefaults() PlanOptions {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 8
	}
	if o.CycleHours <= 0 {
		o.CycleHours = 720
	}
	return o
}

// Round is one maintenance round of a system's campaign.
type Round struct {
	// CVEs are the vulnerabilities the round patches.
	CVEs []string `json:"cves"`
	// DowntimeMinutes is the round's outage when the window succeeds.
	DowntimeMinutes float64 `json:"downtimeMinutes"`
	// ExpectedDowntimeMinutes weights the success and rollback branches
	// by the system's success probability.
	ExpectedDowntimeMinutes float64 `json:"expectedDowntimeMinutes"`
}

// SystemPlan is one system's campaign inside a fleet plan.
type SystemPlan struct {
	// System echoes the registered definition.
	System System `json:"system"`
	// Rounds are the campaign's maintenance rounds in execution order.
	Rounds []Round `json:"rounds"`
	// Deferred lists vulnerabilities that fit no window at all.
	Deferred []string `json:"deferred"`
	// RiskBefore and RiskAfter are the design's network ASP before and
	// after the campaign's patch round (the engine's security axis).
	RiskBefore float64 `json:"riskBefore"`
	RiskAfter  float64 `json:"riskAfter"`
	// ResidualASP traces the composite attack-surface probability of the
	// campaign role's unpatched vulnerabilities after each completed
	// round: entry 0 is before any round, the last entry is the floor
	// the deferred set leaves behind.
	ResidualASP []float64 `json:"residualAsp"`
	// Score is the scheduler's ordering key:
	// priority × risk reduction ÷ campaign downtime hours.
	Score float64 `json:"score"`
	// DeadlineAtRisk reports that the scheduled campaign finishes after
	// the system's compliance deadline.
	DeadlineAtRisk bool `json:"deadlineAtRisk,omitempty"`

	// campaign retains the planner's vulnerability objects for the
	// simulator (IDs alone cannot re-enter the residual computation).
	campaign patch.Campaign
}

// Window is one scheduled maintenance window of the fleet plan.
type Window struct {
	// Seq numbers windows in schedule order.
	Seq int `json:"seq"`
	// SystemID and Scenario name the system the window patches.
	SystemID string `json:"systemId"`
	Scenario string `json:"scenario,omitempty"`
	// Cycle is the scheduling cycle the window runs in; Round indexes
	// the system's campaign round it executes.
	Cycle int `json:"cycle"`
	Round int `json:"round"`
	// StartHours is the window's start on the fleet campaign clock.
	StartHours float64 `json:"startHours"`
	// DowntimeMinutes is the round's success-branch outage.
	DowntimeMinutes float64 `json:"downtimeMinutes"`
	// CVEs are the vulnerabilities the window patches.
	CVEs []string `json:"cves"`
}

// Plan is a scheduled fleet campaign.
type Plan struct {
	// Systems holds one campaign per system, sorted by ID.
	Systems []SystemPlan `json:"systems"`
	// Windows is the fleet-wide schedule in execution order.
	Windows []Window `json:"windows"`
	// Cycles is the number of scheduling cycles the campaign spans.
	Cycles int `json:"cycles"`
	// DeadlineAtRisk lists systems whose campaign ends after their
	// compliance deadline, sorted by ID.
	DeadlineAtRisk []string `json:"deadlineAtRisk"`
	// TotalDowntimeMinutes sums the success-branch outage of every
	// scheduled window.
	TotalDowntimeMinutes float64 `json:"totalDowntimeMinutes"`
}

// residualTrajectory computes the composite ASP of the campaign's
// unpatched set after each completed round. The campaign's own rounds
// and deferred list reconstruct the full selected set, so the
// trajectory needs no second look at the vulnerability database; the
// composition is canonical (sorted by CVE), so any code path composing
// the same residual set produces bit-identical floats.
func residualTrajectory(camp patch.Campaign) []float64 {
	all := campaignVulns(camp)
	out := make([]float64, camp.TotalRounds()+1)
	for i := range out {
		out[i] = vulndb.CompositeASP(camp.ResidualAfterRound(i, all))
	}
	return out
}

// campaignVulns reconstructs the campaign's selected set: every round's
// vulnerabilities plus the deferred ones.
func campaignVulns(camp patch.Campaign) []vulndb.Vulnerability {
	var all []vulndb.Vulnerability
	for _, r := range camp.Rounds {
		all = append(all, r.Selected...)
	}
	return append(all, camp.Deferred...)
}

// cveIDs projects vulnerabilities onto their identifiers.
func cveIDs(vulns []vulndb.Vulnerability) []string {
	out := make([]string, len(vulns))
	for i, v := range vulns {
		out[i] = v.ID
	}
	return out
}

// planSystem evaluates one system and plans its campaign.
func planSystem(ctx context.Context, s System, eng Engine) (SystemPlan, error) {
	before, after, err := eng.EvaluateSummaries(ctx, s.Spec())
	if err != nil {
		return SystemPlan{}, fmt.Errorf("fleet: %s: %w", s.ID, err)
	}
	camp, err := eng.PlanCampaign(s.Role, s.window())
	if err != nil {
		return SystemPlan{}, fmt.Errorf("fleet: %s: %w", s.ID, err)
	}
	sp := SystemPlan{
		System:      s,
		Deferred:    cveIDs(camp.Deferred),
		RiskBefore:  before.ASP,
		RiskAfter:   after.ASP,
		ResidualASP: residualTrajectory(camp),
		campaign:    camp,
	}
	if sp.Deferred == nil {
		sp.Deferred = []string{}
	}
	att := s.attempt()
	var downtimeHours float64
	for _, r := range camp.Rounds {
		sp.Rounds = append(sp.Rounds, Round{
			CVEs:                    cveIDs(r.Selected),
			DowntimeMinutes:         r.TotalDowntime().Minutes(),
			ExpectedDowntimeMinutes: r.ExpectedDowntime(att).Minutes(),
		})
		downtimeHours += r.TotalDowntime().Hours()
	}
	reduction := sp.RiskBefore - sp.RiskAfter
	if reduction < 0 {
		reduction = 0
	}
	if downtimeHours < 1.0/60 {
		downtimeHours = 1.0 / 60 // floor: a minute, so free campaigns don't divide by zero
	}
	sp.Score = s.priority() * reduction / downtimeHours
	return sp, nil
}

// schedState tracks one system through the greedy cycle loop.
type schedState struct {
	plan *SystemPlan
	next int // index of the next pending round
}

// pickCycle selects up to max systems with pending rounds, highest score
// first (ties broken by ID for determinism). Both the planner and the
// simulator schedule through this helper, so with the rollback branch
// dormant the simulator reproduces the planner's schedule exactly.
func pickCycle(states []*schedState, max int, pending func(*schedState) bool) []*schedState {
	eligible := make([]*schedState, 0, len(states))
	for _, st := range states {
		if pending(st) {
			eligible = append(eligible, st)
		}
	}
	sort.SliceStable(eligible, func(i, j int) bool {
		si, sj := eligible[i].plan.Score, eligible[j].plan.Score
		if si != sj {
			return si > sj
		}
		return eligible[i].plan.System.ID < eligible[j].plan.System.ID
	})
	if len(eligible) > max {
		eligible = eligible[:max]
	}
	return eligible
}

// PlanFleet evaluates every system concurrently on its scenario's
// engine, plans each system's campaign, and schedules the fleet's
// maintenance windows: cycle by cycle, the highest
// risk-reduction-per-downtime systems (weighted by priority) take the
// MaxConcurrent slots, one window per system per cycle, until every
// round is placed. The whole call runs under a "fleet.plan" span. The
// systems must be valid, as the registry keeps them: PlanFleet checks
// only that their IDs are distinct, and each design is validated once,
// by the engine that evaluates it.
func PlanFleet(ctx context.Context, systems []System, resolve Resolver, opts PlanOptions) (Plan, error) {
	opts = opts.withDefaults()
	ctx, span := trace.Start(ctx, "fleet.plan",
		trace.Attr{Key: "systems", Value: len(systems)},
		trace.Attr{Key: "max_concurrent", Value: opts.MaxConcurrent})
	plan, err := planFleet(ctx, systems, resolve, opts)
	if err != nil {
		span.EndErr(err)
		return Plan{}, err
	}
	span.SetAttr("windows", len(plan.Windows))
	span.SetAttr("cycles", plan.Cycles)
	span.End()
	return plan, nil
}

func planFleet(ctx context.Context, systems []System, resolve Resolver, opts PlanOptions) (Plan, error) {
	if len(systems) == 0 {
		return Plan{}, fmt.Errorf("fleet: no systems to plan")
	}
	seen := make(map[string]bool, len(systems))
	for _, s := range systems {
		if seen[s.ID] {
			return Plan{}, fmt.Errorf("fleet: duplicate system id %q", s.ID)
		}
		seen[s.ID] = true
	}

	// Resolve every distinct scenario once, before the fan-out.
	engines := make(map[string]Engine)
	for _, s := range systems {
		if _, ok := engines[s.Scenario]; ok {
			continue
		}
		eng, err := resolve(s.Scenario)
		if err != nil {
			return Plan{}, fmt.Errorf("fleet: scenario %q: %w", s.Scenario, err)
		}
		engines[s.Scenario] = eng
	}

	plans, err := workpool.Map(opts.Workers, systems, func(_ int, s System) (SystemPlan, error) {
		if err := ctx.Err(); err != nil {
			return SystemPlan{}, err
		}
		return planSystem(ctx, s, engines[s.Scenario])
	})
	if err != nil {
		return Plan{}, err
	}

	sort.Slice(plans, func(i, j int) bool { return plans[i].System.ID < plans[j].System.ID })
	out := Plan{Systems: plans, DeadlineAtRisk: []string{}, Windows: []Window{}}

	states := make([]*schedState, len(out.Systems))
	for i := range out.Systems {
		states[i] = &schedState{plan: &out.Systems[i]}
	}
	lastEnd := make(map[string]float64, len(states))
	for cycle := 0; ; cycle++ {
		if err := ctx.Err(); err != nil {
			return Plan{}, err
		}
		active := pickCycle(states, opts.MaxConcurrent, func(st *schedState) bool {
			return st.next < len(st.plan.Rounds)
		})
		if len(active) == 0 {
			break
		}
		out.Cycles = cycle + 1
		start := float64(cycle) * opts.CycleHours
		for _, st := range active {
			r := st.plan.Rounds[st.next]
			out.Windows = append(out.Windows, Window{
				Seq:             len(out.Windows),
				SystemID:        st.plan.System.ID,
				Scenario:        st.plan.System.Scenario,
				Cycle:           cycle,
				Round:           st.next,
				StartHours:      start,
				DowntimeMinutes: r.DowntimeMinutes,
				CVEs:            r.CVEs,
			})
			out.TotalDowntimeMinutes += r.DowntimeMinutes
			lastEnd[st.plan.System.ID] = start + r.DowntimeMinutes/60
			st.next++
		}
	}

	for i := range out.Systems {
		sp := &out.Systems[i]
		if d := sp.System.DeadlineHours; d > 0 && lastEnd[sp.System.ID] > d {
			sp.DeadlineAtRisk = true
			out.DeadlineAtRisk = append(out.DeadlineAtRisk, sp.System.ID)
		}
	}
	return out, nil
}
