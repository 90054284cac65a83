// Package redundancy evaluates server-redundancy design choices on both
// axes of the paper — security (HARM metrics before and after patch) and
// capacity oriented availability (aggregated SRN model) — and implements
// the administrator decision functions of Eq. 3 (two-metric bounds) and
// Eq. 4 (multi-metric bounds) plus a Pareto-front analysis.
package redundancy

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"redpatch/internal/attacktree"
	"redpatch/internal/availability"
	"redpatch/internal/harm"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
	"redpatch/internal/trace"
	"redpatch/internal/vulndb"
)

// Evaluator evaluates redundancy designs for one case study: the paper's
// vulnerability dataset and per-stack attack trees under a patch policy
// and schedule. Lower-layer availability models are solved once per
// software stack and cached — the paper's four roles eagerly at
// construction, variant stacks (RoleWebAlt) lazily on first use.
//
// An Evaluator is safe for concurrent use after NewEvaluator returns:
// the configuration fields are read-only from then on, the lazily
// filled memos (per-stack rates, tier factors, compiled security models
// and design shapes) are guarded by its mutex and hold immutable values
// (a shape fills its own model slots atomically or under its mutex),
// harm.Build clones the shared attack-tree templates before touching
// them, vulndb.DB lookups are plain map reads, and each call builds
// only its own result, in scratch of its own from a pool; the
// evaluator's dataset is its own and never handed out. The concurrent
// engine (internal/engine) relies on this guarantee.
type Evaluator struct {
	db       *vulndb.DB
	trees    map[string]*attacktree.Tree
	policy   patch.Policy
	schedule patch.Schedule
	evalOpts harm.EvalOptions

	mu      sync.Mutex // guards agg, plans, factors, security and shapes (lazy solves)
	agg     map[string]availability.AggregatedRates
	plans   map[string]patch.Plan
	factors map[factorKey]availability.TierFactor
	// security maps a rollout structure key
	// (paperdata.RolloutQuotient.Structure: the replica-independent
	// quotient structure plus one 'u'/'p' patch-state marker per class)
	// to its factored security model, compiled under evalOpts. Replica
	// counts deliberately do not appear: they enter the compiled metrics
	// in closed form at evaluation time, which is what turns an R^k sweep
	// into O(#variant-combos) HARM builds. An atomic design is the
	// rollout at its two endpoints — Before is the all-'u' model, After
	// the all-'p' one — so atomic evaluations and rollout sweeps share
	// this memo. One evaluator has one policy, so the policy is not part
	// of the key.
	security map[string]*harm.Compiled
	// shapes maps a spec's roles and stacks, in order, to its shape
	// (shape.go).
	shapes map[string]*shape

	// workspaces pools the *workspace scratch of availability solves.
	workspaces sync.Pool

	// Solver dispatch counters (see SolverStats).
	factoredSolves   atomic.Uint64
	tierSolves       atomic.Uint64
	tierFactorHits   atomic.Uint64
	securityFactored atomic.Uint64
	securitySolves   atomic.Uint64
	securityHits     atomic.Uint64
}

// factorKey identifies one memoized tier factor: a software stack (whose
// aggregated rates are fixed for the evaluator's policy configuration)
// deployed at a replica count, with patched servers of the n on the
// patch cycle. Atomic evaluations always use patched == n, so the
// fully-patched rollout endpoint lands on — and shares — the atomic
// memo entries.
type factorKey struct {
	stack   string
	n       int
	patched int
}

// Options configures an Evaluator. Nil fields select the paper's
// defaults. The evaluator always reads the paper dataset and its Fig. 3
// attack-tree templates, and evaluates security with ASPCompromise and
// noisy-OR tree combination, the configuration closest to the paper's
// published ASP values (0.234 against Table II's 0.265; harm's
// TestASPStrategiesAfterPatch pins every rule).
type Options struct {
	// Policy defaults to the critical policy (base score > 8.0).
	Policy *patch.Policy
	// Schedule defaults to the monthly schedule.
	Schedule *patch.Schedule
}

// NewEvaluator builds an evaluator and solves the per-role availability
// models.
func NewEvaluator(opts Options) (*Evaluator, error) {
	db := paperdata.VulnDB()
	e := &Evaluator{
		db:       db,
		trees:    paperdata.Trees(db),
		policy:   patch.CriticalPolicy(),
		schedule: patch.MonthlySchedule(),
		evalOpts: harm.EvalOptions{Strategy: harm.ASPCompromise, ORRule: attacktree.ORNoisy},
		agg:      make(map[string]availability.AggregatedRates),
		plans:    make(map[string]patch.Plan),
		factors:  make(map[factorKey]availability.TierFactor),
		security: make(map[string]*harm.Compiled),
		shapes:   make(map[string]*shape),
	}
	if opts.Policy != nil {
		e.policy = *opts.Policy
	}
	if opts.Schedule != nil {
		e.schedule = *opts.Schedule
	}

	for _, role := range paperdata.Roles() {
		if _, err := e.ratesFor(role); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// ratesFor returns the aggregated patch/recovery rates of a software
// stack, solving and caching its lower-layer availability model on first
// use. The paper's four roles are presolved at construction; variant
// stacks land here lazily. The solve runs outside the mutex so a cache
// miss never stalls workers whose stacks are already cached; concurrent
// first requests for one stack may duplicate the (deterministic) solve,
// which beats serializing the whole pool behind it.
func (e *Evaluator) ratesFor(stack string) (availability.AggregatedRates, error) {
	e.mu.Lock()
	a, ok := e.agg[stack]
	e.mu.Unlock()
	if ok {
		return a, nil
	}
	params, plan, err := paperdata.ServerParams(e.db, stack, e.policy, e.schedule)
	if err != nil {
		return availability.AggregatedRates{}, err
	}
	agg := availability.AggregatedRates{} // a stack that never patches is always fully up
	if plan.RequiresPatch() {
		sol, err := availability.SolveServer(params)
		if err != nil {
			return availability.AggregatedRates{}, err
		}
		if agg, err = availability.Aggregate(sol); err != nil {
			return availability.AggregatedRates{}, err
		}
	}
	e.mu.Lock()
	e.plans[stack] = plan
	e.agg[stack] = agg
	e.mu.Unlock()
	return agg, nil
}

// AggregatedRates exposes the cached per-stack rates (Table V).
func (e *Evaluator) AggregatedRates() map[string]availability.AggregatedRates {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]availability.AggregatedRates, len(e.agg))
	for k, v := range e.agg {
		out[k] = v
	}
	return out
}

// Plans exposes the per-stack patch plans.
func (e *Evaluator) Plans() map[string]patch.Plan {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]patch.Plan, len(e.plans))
	for k, v := range e.plans {
		out[k] = v
	}
	return out
}

// Result is the full evaluation of one design.
type Result struct {
	// Spec is the role-keyed design the result was evaluated for.
	Spec paperdata.DesignSpec
	// Before and After hold the security metrics on either side of the
	// patch round.
	Before, After harm.Metrics
	// COA is the capacity oriented availability under the patch schedule.
	COA float64
	// ServiceAvailability is P(at least one server up in every tier).
	ServiceAvailability float64
}

// buildHARM constructs the security model of a spec: the generalized
// Fig. 2 topology with the evaluator's attack-tree templates, targeting
// the stacks of the last logical tier.
func (e *Evaluator) buildHARM(spec paperdata.DesignSpec) (*harm.HARM, error) {
	return harm.Build(harm.BuildInput{
		Topology:    paperdata.SpecTopology(spec),
		Trees:       e.trees,
		TargetRoles: spec.TargetStacks(),
	})
}

// workspace is the scratch of one design's availability solve: the
// network model's tiers with the patched count behind each, the tier
// factors, and the composition's buffers. The evaluator pools
// workspaces, so a design on warm memos composes without allocating.
type workspace struct {
	tiers   []availability.Tier
	patched []int
	factors []availability.TierFactor
	compose availability.Workspace
}

// getWorkspace takes a workspace from the evaluator's pool; the caller
// returns it with e.workspaces.Put once nothing it returns aliases it.
func (e *Evaluator) getWorkspace() *workspace {
	if ws, ok := e.workspaces.Get().(*workspace); ok {
		return ws
	}
	return new(workspace)
}

// tierFactorFor returns the birth–death solution of one (stack, replica
// count, patched count) tier, memoized: a sweep over an R^k replica
// space performs one tier solve per distinct (stack, n) pair — O(R*k) —
// rather than one network solve per point. Atomic evaluations ask for
// patched == n, which SolveTierFactorRollout answers with the plain
// SolveTierFactor, so the fully-patched rollout endpoint and the atomic
// design share one entry. The solve is O(n) and runs under the mutex,
// so concurrent misses for one key never duplicate it and the TierSolves
// counter is an exact distinct-key count. The hit return reports whether
// the memo served the factor; the context carries tracing only.
func (e *Evaluator) tierFactorFor(ctx context.Context, stack string, tier availability.Tier, patched int) (availability.TierFactor, bool, error) {
	k := factorKey{stack: stack, n: tier.N, patched: patched}
	e.mu.Lock()
	defer e.mu.Unlock()
	if f, ok := e.factors[k]; ok {
		e.tierFactorHits.Add(1)
		return f, true, nil
	}
	f, err := availability.SolveTierFactorRolloutCtx(ctx, tier, patched)
	if err != nil {
		return availability.TierFactor{}, false, err
	}
	e.tierSolves.Add(1)
	e.factors[k] = f
	return f, false, nil
}

// keepLeaf is the patch transformation's keep predicate: a leaf survives
// the patch round unless its vulnerability is known and selected by the
// evaluator's policy. One definition serves both the factored path and
// the expanded oracle, so they can never disagree on patch semantics.
func (e *Evaluator) keepLeaf(_ string, l *attacktree.Leaf) bool {
	v, ok := e.db.ByID(l.Ref)
	if !ok {
		return true // unknown leaves cannot be patched away
	}
	return !e.policy.Selects(v)
}

// securityModel returns the compiled security model stored under a
// rollout structure key (paperdata.FoldRollout's bytes), building it
// on a miss from the rollout quotient that build returns: the quotient
// topology, its HARM, and the post-patch attack trees of the patched
// classes — everything about security that does not depend on replica
// counts — compiled under the evaluator's EvalOptions. The probe
// converts the key without copying it; only a miss stores a string.
// The build runs under the mutex (it is microseconds of work on a
// replica-independent graph), so concurrent misses for one key never
// duplicate it and SecuritySolves counts distinct models exactly. The
// hit return reports whether the memo served the model; a miss — the
// one place real security model-building happens — runs under a
// "security.evaluate" span, while hits stay span-free (the caller
// records provenance attributes instead).
func (e *Evaluator) securityModel(ctx context.Context, key []byte, build func() paperdata.RolloutQuotient) (*harm.Compiled, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if m, ok := e.security[string(key)]; ok {
		e.securityHits.Add(1)
		return m, true, nil
	}
	_, sp := trace.Start(ctx, "security.evaluate",
		trace.Attr{Key: "solver", Value: "quotient"},
		trace.Attr{Key: "memo", Value: "miss"})
	m, err := e.buildSecurityModel(key, build)
	sp.EndErr(err)
	if err != nil {
		return nil, false, err
	}
	e.securitySolves.Add(1)
	e.security[string(key)] = m
	return m, false, nil
}

// buildSecurityModel builds and compiles the factored security model of
// one rollout quotient: patched classes carry the policy-pruned attack
// trees. A quotient whose structure is not the probed key would file
// the model under another design's key, so it is an error.
func (e *Evaluator) buildSecurityModel(key []byte, build func() paperdata.RolloutQuotient) (*harm.Compiled, error) {
	rq := build()
	if rq.Structure != string(key) {
		// string(key) copies, so the caller's stack buffer stays put.
		return nil, fmt.Errorf("redundancy: security memo key %q does not match rollout structure %q", string(key), rq.Structure)
	}
	f, err := harm.BuildFactoredRollout(harm.BuildInput{
		Topology:    paperdata.SpecTopology(rq.Quotient),
		Trees:       e.trees,
		TargetRoles: rq.Quotient.TargetStacks(),
	}, rq.PatchedHosts, e.keepLeaf)
	if err != nil {
		return nil, err
	}
	return f.Compile(rq.Hosts, e.evalOpts)
}

// SolverStats counts the evaluator's model-solver dispatch on both paper
// axes.
type SolverStats struct {
	// FactoredSolves is the number of network solves served by the
	// factored (per-tier birth–death) path.
	FactoredSolves uint64
	// TierSolves is the number of per-(stack, replicas) tier factors
	// solved — the cache-miss count.
	TierSolves uint64
	// TierFactorHits is the number of tier factors served from the memo.
	TierFactorHits uint64
	// SecurityFactored is the number of spec security evaluations served
	// by the factored (quotient) path.
	SecurityFactored uint64
	// SecuritySolves is the number of factored security models built —
	// one per distinct rollout structure key, the security memo's miss
	// count. An atomic design needs two models (its unpatched and fully
	// patched endpoints); a rollout point needs one.
	SecuritySolves uint64
	// SecurityFactorHits is the number of security-model lookups served
	// from the memo: two per atomic evaluation, one per rollout point.
	SecurityFactorHits uint64
}

// SolverStats returns a snapshot of the dispatch counters.
func (e *Evaluator) SolverStats() SolverStats {
	return SolverStats{
		FactoredSolves:     e.factoredSolves.Load(),
		TierSolves:         e.tierSolves.Load(),
		TierFactorHits:     e.tierFactorHits.Load(),
		SecurityFactored:   e.securityFactored.Load(),
		SecuritySolves:     e.securitySolves.Load(),
		SecurityFactorHits: e.securityHits.Load(),
	}
}

// EvaluateSpecContext runs both models for one role-keyed design: its
// shape, then the arithmetic. Security goes through the factored
// (quotient) evaluator: the replica-symmetric HARM is built once per
// variant structure and the spec's replica counts enter the metrics in
// closed form, so sweeps never rebuild or re-enumerate the
// replica-expanded model. When the context carries a tracer, real
// solver work records spans; the returned Provenance says which memos
// served the rest. The context is used for observability only — an
// evaluation never aborts mid-solve on cancellation, so a result
// computed for one caller stays valid for every concurrent caller
// deduplicated onto it. The spec must be valid: the engine's entries
// validate it, once per request.
func (e *Evaluator) EvaluateSpecContext(ctx context.Context, spec paperdata.DesignSpec) (Result, Provenance, error) {
	s, err := e.shapeOf(spec)
	if err != nil {
		return Result{}, Provenance{}, err
	}
	return s.evaluate(ctx, spec)
}

// RankPatches ranks the policy-selected vulnerabilities of a design by
// the network-level risk reduction of patching each alone — the
// prioritization an administrator needs when the selected set does not
// fit one maintenance window. The ranking uses the evaluator's own
// dataset, trees and policy, so a PatchAll or custom-threshold study
// ranks exactly the set it would patch.
func (e *Evaluator) RankPatches(spec paperdata.DesignSpec) ([]harm.PatchCandidate, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	h, err := e.buildHARM(spec)
	if err != nil {
		return nil, err
	}
	return h.RankPatchCandidatesWhere(e.evalOpts, func(ref string) bool {
		v, ok := e.db.ByID(ref)
		return ok && e.policy.Selects(v)
	})
}

// PlanCampaign splits the policy-selected patches of one stack role over
// maintenance rounds bounded by maxWindow, under the evaluator's policy
// and schedule.
func (e *Evaluator) PlanCampaign(role string, maxWindow time.Duration) (patch.Campaign, error) {
	vulns, err := paperdata.VulnsForRole(e.db, role)
	if err != nil {
		return patch.Campaign{}, err
	}
	return patch.PlanCampaign(role, vulns, e.policy, e.schedule, maxWindow)
}

// Front returns the items not dominated on the (minimize ASP, maximize
// COA) plane, where point gives an item's coordinates. The front is in
// a total order: ASP ascending, then COA descending, then tiebreak, so
// it depends only on its members and never on the input order (a
// streamed sweep collects its items in completion order). The design
// front, the facade's Pareto and the rollout frontier all run on it.
//
// It sorts once and scans: in (ASP ascending, COA descending) order, a
// group of equal points is on the front exactly when no point before it
// has COA at least theirs, so the front costs O(n log n) with point
// called once per item. A NaN coordinate makes every comparison false,
// so such an item neither dominates nor is dominated: it stays out of
// the scan and is always a member.
func Front[T any](items []T, point func(T) (asp, coa float64), tiebreak func(a, b T) int) []T {
	pts := make([]frontPoint, len(items))
	order := make([]int, 0, len(items))
	member := make([]bool, len(items))
	for i, it := range items {
		asp, coa := point(it)
		pts[i] = frontPoint{asp, coa}
		if asp != asp || coa != coa { // NaN
			member[i] = true
		} else {
			order = append(order, i)
		}
	}
	byPoint := func(a, b int) int {
		if c := cmp.Compare(pts[a].asp, pts[b].asp); c != 0 {
			return c
		}
		return cmp.Compare(pts[b].coa, pts[a].coa)
	}
	slices.SortFunc(order, byPoint)
	seen, best := false, 0.0 // best: the highest COA at a lower ASP
	for g := 0; g < len(order); {
		head := pts[order[g]] // the group's highest COA at this ASP
		keep := !seen || head.coa > best
		for ; g < len(order) && pts[order[g]].asp == head.asp; g++ {
			member[order[g]] = keep && pts[order[g]].coa == head.coa
		}
		if keep {
			seen, best = true, head.coa
		}
	}
	// Members are collected in input order before the final sort, as in
	// the quadratic reference the tests keep, so even items the
	// comparator ties on come out in the same order.
	idx := make([]int, 0, len(items))
	for i, m := range member {
		if m {
			idx = append(idx, i)
		}
	}
	slices.SortFunc(idx, func(a, b int) int {
		if c := byPoint(a, b); c != 0 {
			return c
		}
		return tiebreak(items[a], items[b])
	})
	var front []T // nil when empty, as callers encode it
	if len(idx) > 0 {
		front = make([]T, len(idx))
	}
	for k, i := range idx {
		front[k] = items[i]
	}
	return front
}

// frontPoint is one item's (ASP, COA) coordinates in Front.
type frontPoint struct{ asp, coa float64 }
