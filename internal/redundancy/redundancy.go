// Package redundancy evaluates server-redundancy design choices on both
// axes of the paper — security (HARM metrics before and after patch) and
// capacity oriented availability (aggregated SRN model) — and implements
// the administrator decision functions of Eq. 3 (two-metric bounds) and
// Eq. 4 (multi-metric bounds) plus a Pareto-front analysis.
package redundancy

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
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
// filled memos (per-stack rates, tier factors and compiled security
// models) are guarded by its mutex and hold immutable values,
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

	mu      sync.Mutex // guards agg, plans, factors and security (lazy solves)
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
// spec's logical order, the upper-layer network model's tiers with the
// software stack and patched count behind each, the tier factors, and
// the composition's buffers. The evaluator pools workspaces, so a
// design on warm memos builds its model and composes it without
// allocating.
type workspace struct {
	order   []int
	tiers   []availability.Tier
	stacks  []string
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

// networkModel builds, in ws, the upper-layer availability model of an
// already validated spec: one tier per replica group with the stack's
// aggregated rates, grouped by logical role so heterogeneous groups back
// each other up (the service is up while any group of the role has a
// server up). Tiers follow the spec's logical order
// (paperdata.DesignSpec.AppendLogicalOrder); beside each, ws records
// its software stack — the identity the factored solver memoizes tier
// factors under (tier names carry ordinal suffixes, stacks do not) —
// and its patched count, from patched (aligned with spec.Tiers; nil
// patches every server, the atomic design). When every tier factor is
// memoized it also fills ws.factors and reports true. The rates and the
// factor memo are read under one acquisition of e.mu; a stack whose
// rates were never solved (a variant's first use) is solved outside it
// and the read repeated.
func (e *Evaluator) networkModel(ws *workspace, spec paperdata.DesignSpec, patched []int) (memoized bool, err error) {
	for {
		missing, memoized := e.readNetwork(ws, spec, patched)
		if missing == "" {
			return memoized, nil
		}
		if _, err := e.ratesFor(missing); err != nil {
			return false, err
		}
	}
}

// readNetwork is one read of networkModel under e.mu. It returns the
// first stack without solved rates, or "" and whether every tier factor
// was memoized, counting the hits only then.
func (e *Evaluator) readNetwork(ws *workspace, spec paperdata.DesignSpec, patched []int) (missing string, memoized bool) {
	ws.order = spec.AppendLogicalOrder(ws.order[:0])
	ws.tiers, ws.stacks, ws.patched = ws.tiers[:0], ws.stacks[:0], ws.patched[:0]
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, gi := range ws.order {
		g := spec.Tiers[gi]
		stack := g.Stack()
		agg, ok := e.agg[stack]
		if !ok {
			return stack, false
		}
		// Tier names must be unique in the SRN; a stack deployed in
		// several groups gets an ordinal suffix past the first.
		name, n := stack, 1
		for _, s := range ws.stacks {
			if s == stack {
				n++
			}
		}
		if n > 1 {
			name = stack + "#" + strconv.Itoa(n)
		}
		ws.tiers = append(ws.tiers, availability.Tier{
			Name:     name,
			Group:    g.Role,
			N:        g.Replicas,
			LambdaEq: agg.LambdaEq,
			MuEq:     agg.MuEq,
		})
		ws.stacks = append(ws.stacks, stack)
		p := g.Replicas
		if patched != nil {
			p = patched[gi]
		}
		ws.patched = append(ws.patched, p)
	}
	ws.factors = ws.factors[:0]
	for i, t := range ws.tiers {
		f, ok := e.factors[factorKey{stack: ws.stacks[i], n: t.N, patched: ws.patched[i]}]
		if !ok {
			return "", false
		}
		ws.factors = append(ws.factors, f)
	}
	e.tierFactorHits.Add(uint64(len(ws.tiers)))
	return "", true
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

// solveNetwork solves one valid spec's availability, in ws, at
// per-tier patched counts (aligned with spec.Tiers; nil for the atomic
// design) by the memoized factored path. When every tier factor is
// already memoized the solve is closed-form arithmetic, so it is
// recorded as attributes on the caller's span rather than a span of
// its own — a memo-warm sweep stays nearly span-free. Any real solve
// work gets an "availability.solve" span recording the solver and how
// many tier factors came from the memo versus fresh solves.
func (e *Evaluator) solveNetwork(ctx context.Context, ws *workspace, spec paperdata.DesignSpec, patched []int) (availability.NetworkSolution, error) {
	memoized, err := e.networkModel(ws, spec, patched)
	if err != nil {
		return availability.NetworkSolution{}, err
	}
	nm := availability.NetworkModel{Tiers: ws.tiers}
	if memoized {
		// One attribute suffices: on this path every tier factor was a
		// memo hit by definition.
		trace.FromContext(ctx).SetAttr("availability_solver", "factored")
		e.factoredSolves.Add(1)
		return availability.ComposeNetwork(nm, ws.factors, &ws.compose)
	}
	ctx, sp := trace.Start(ctx, "availability.solve",
		trace.Attr{Key: "tiers", Value: len(nm.Tiers)})
	sol, err := e.solveNetworkSpanned(ctx, sp, ws)
	sp.EndErr(err)
	return sol, err
}

// solveNetworkSpanned solves ws's model when a tier factor missed the
// memo: tierFactorFor counts each tier's hit or solve.
func (e *Evaluator) solveNetworkSpanned(ctx context.Context, sp *trace.Span, ws *workspace) (availability.NetworkSolution, error) {
	sp.SetAttr("solver", "factored")
	ws.factors = ws.factors[:0]
	hits := 0
	for i, t := range ws.tiers {
		f, hit, err := e.tierFactorFor(ctx, ws.stacks[i], t, ws.patched[i])
		if err != nil {
			return availability.NetworkSolution{}, err
		}
		if hit {
			hits++
		}
		ws.factors = append(ws.factors, f)
	}
	sp.SetAttr("tier_memo_hits", hits)
	sp.SetAttr("tier_solves", len(ws.tiers)-hits)
	e.factoredSolves.Add(1)
	return availability.ComposeNetwork(availability.NetworkModel{Tiers: ws.tiers}, ws.factors, &ws.compose)
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

// recordSecurity sets the security provenance attributes on the
// caller's span: memo-served evaluations are closed-form arithmetic and
// open no span of their own.
func recordSecurity(ctx context.Context, hit bool) {
	parent := trace.FromContext(ctx)
	parent.SetAttr("security_solver", "quotient")
	if hit {
		parent.SetAttr("security_memo", "hit")
	} else {
		parent.SetAttr("security_memo", "miss")
	}
}

// Stack buffer sizes for the security memo probe: room for the fold's
// key and class counts of designs up to about eight tiers, past which
// append moves them to the heap.
const (
	keyBuf   = 160
	classBuf = 16
)

// securityFor evaluates both sides of the patch round for one valid
// spec via the compiled path. The spec folds to its rollout structure
// key at the all-unpatched endpoint (Before) and its class counts. The
// all-patched endpoint (After) has the same quotient and the same
// counts — no class is split at either end — so its key is the same
// key with every patch-state marker after the '|' (which no label may
// hold) turned from 'u' to 'p'. Both models come from the security
// memo, built once per variant structure, and the counts enter their
// metrics in closed form. The rollout quotient is built only on a memo
// miss, whose structure must equal the probed key. The
// expanded-topology evaluation (securityExpanded, in the tests) is the
// cross-validation oracle.
func (e *Evaluator) securityFor(ctx context.Context, spec paperdata.DesignSpec) (before, after harm.Metrics, err error) {
	var keyb [2][keyBuf]byte
	var countb [classBuf]int
	beforeKey, counts := paperdata.FoldRollout(keyb[0][:0], countb[:0], spec, nil)
	afterKey := append(keyb[1][:0], beforeKey...)
	for i := bytes.LastIndexByte(afterKey, '|') + 1; i < len(afterKey); i++ {
		afterKey[i] = 'p'
	}

	bm, bhit, err := e.securityModel(ctx, beforeKey, func() paperdata.RolloutQuotient {
		return paperdata.SpecRolloutQuotient(spec, make([]int, len(spec.Tiers)))
	})
	if err != nil {
		return harm.Metrics{}, harm.Metrics{}, err
	}
	am, ahit, err := e.securityModel(ctx, afterKey, func() paperdata.RolloutQuotient {
		full := make([]int, len(spec.Tiers))
		for i, t := range spec.Tiers {
			full[i] = t.Replicas
		}
		return paperdata.SpecRolloutQuotient(spec, full)
	})
	if err != nil {
		return harm.Metrics{}, harm.Metrics{}, err
	}
	recordSecurity(ctx, bhit && ahit)
	e.securityFactored.Add(1)
	if before, err = bm.Evaluate(counts); err != nil {
		return harm.Metrics{}, harm.Metrics{}, err
	}
	if after, err = am.Evaluate(counts); err != nil {
		return harm.Metrics{}, harm.Metrics{}, err
	}
	return before, after, nil
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

// EvaluateSpecContext runs both models for one role-keyed design.
// Security goes through the factored (quotient) evaluator: the
// replica-symmetric HARM is built once per variant structure and the
// spec's replica counts enter the metrics in closed form, so sweeps never
// rebuild or re-enumerate the replica-expanded model. When the context
// carries a tracer, the security and availability solves record spans
// naming which solver ran, which memos hit, and how long each step took.
// The context is used for observability only — an evaluation never
// aborts mid-solve on cancellation, so a result computed for one caller
// stays valid for every concurrent caller deduplicated onto it. The
// spec must be valid: the engine's entries validate it, once per
// request.
func (e *Evaluator) EvaluateSpecContext(ctx context.Context, spec paperdata.DesignSpec) (Result, error) {
	res := Result{Spec: spec}
	var err error
	if res.Before, res.After, err = e.securityFor(ctx, spec); err != nil {
		return Result{}, err
	}

	ws := e.getWorkspace()
	sol, err := e.solveNetwork(ctx, ws, spec, nil)
	e.workspaces.Put(ws)
	if err != nil {
		return Result{}, err
	}
	res.COA = sol.COA
	res.ServiceAvailability = sol.ServiceAvailability
	return res, nil
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

// dominates is the dominance rule on the (minimize ASP, maximize COA)
// plane that Front's sort-and-scan implements: a is no worse than b on
// both axes and strictly better on at least one. The quadratic reference
// that FuzzFrontMatchesQuadratic pins Front to applies it pairwise.
func dominates(aASP, aCOA, bASP, bCOA float64) bool {
	return aASP <= bASP && aCOA >= bCOA && (aASP < bASP || aCOA > bCOA)
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
