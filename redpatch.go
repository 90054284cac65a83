// Package redpatch is a from-scratch Go implementation of the modelling
// framework of "Evaluating Security and Availability of Multiple
// Redundancy Designs when Applying Security Patches" (Ge, Kim & Kim,
// DSN-W 2017): graphical security models (two-layered HARM over attack
// graphs and attack trees, scored from CVSS v2), stochastic reward nets
// compiled to continuous-time Markov chains for capacity oriented
// availability under patch schedules, and the administrator decision
// functions that combine the two.
//
// This package is the high-level facade: it exposes the paper's complete
// case study plus design evaluation, decision regions and Pareto
// analysis. The engines live in internal packages (srn, ctmc, harm,
// availability, ...) and are exercised through examples/ and cmd/.
//
// Designs are described by role-keyed DesignSpecs — ordered tier groups
// with replica counts and optional stack variants — evaluated through
// EvaluateSpec and swept through SweepSpecEach.
//
//	study, err := redpatch.NewCaseStudy()
//	r, err := study.EvaluateSpec(redpatch.DesignSpec{Name: "mine", Tiers: []redpatch.TierSpec{
//		{Role: "dns", Replicas: 1}, {Role: "web", Replicas: 2},
//		{Role: "app", Replicas: 2}, {Role: "db", Replicas: 1},
//	}})
//	fmt.Println(r.COA, r.After.ASP)
package redpatch

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"redpatch/internal/engine"
	"redpatch/internal/faultinject"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
	"redpatch/internal/redundancy"
)

// hours converts a float hour count to a duration.
func hours(h float64) time.Duration {
	return time.Duration(h * float64(time.Hour))
}

// TierSpec is one redundancy group of a role-keyed design: Replicas
// servers serving the logical tier Role. Variant, when non-empty,
// selects an alternate software stack (e.g. "webalt" — Nginx on Ubuntu —
// for a "web" tier) with its own vulnerability set and patch plan.
// Several TierSpecs may share a Role: they then form one heterogeneous
// logical tier, available while any of its servers is up.
type TierSpec = paperdata.TierSpec

// DesignSpec is a role-keyed redundancy design: an ordered list of tier
// groups forming the network's logical chain. It generalizes the paper's
// fixed (DNS, Web, App, DB) tuple to arbitrary tier sequences and
// heterogeneous variants. An empty Name gets the canonical compact name.
// Its Key is the canonical cache identity: tier order, roles, variants
// and replica counts, and deliberately not the name.
type DesignSpec = paperdata.DesignSpec

// ClassicSpec builds the paper's four-tier homogeneous spec from the
// classic (DNS, Web, App, DB) replica tuple.
func ClassicSpec(name string, dns, web, app, db int) DesignSpec {
	return paperdata.Design{Name: name, DNS: dns, Web: web, App: app, DB: db}.Spec()
}

// DesignReport is the combined evaluation of one redundancy design: its
// name, its description in the paper's "1 DNS + 2 WEB + 2 APP + 1 DB"
// notation, the evaluated spec, the server count, the security metrics
// before and after the patch round, COA under the patch schedule and
// service availability. AppendJSON writes what encoding/json does.
type DesignReport = engine.Report

// PatchRates are the aggregated per-server-type rates of the paper's
// Table V.
type PatchRates struct {
	// MTTPHours is the mean time to patch (1/lambda_eq).
	MTTPHours float64
	// PatchRate is lambda_eq per hour.
	PatchRate float64
	// MTTRHours is the mean time to recover from a patch (1/mu_eq).
	MTTRHours float64
	// RecoveryRate is mu_eq per hour.
	RecoveryRate float64
	// DowntimeMinutes is the planned patch-window length (service patch +
	// OS patch + merged reboots).
	DowntimeMinutes float64
}

// CaseStudy is the paper's example enterprise network, ready to evaluate
// redundancy designs against. Every evaluation goes through a concurrent
// memoizing engine (internal/engine), so repeated and overlapping queries
// for the same design tuple are served from cache; a CaseStudy is safe
// for concurrent use.
type CaseStudy struct {
	eval *redundancy.Evaluator
	eng  *engine.Engine
}

// NewCaseStudy builds the paper's case study: the Table I vulnerability
// dataset, the Fig. 3 attack trees, the Table IV rates, the critical
// patch policy (CVSS base score > 8.0) and the monthly schedule. The four
// per-server-type availability models are solved once here.
func NewCaseStudy() (*CaseStudy, error) {
	return NewCaseStudyWithConfig(Config{})
}

// Config customizes the case study's patch management. Zero-value fields
// select the paper's defaults.
type Config struct {
	// CriticalThreshold is the CVSS base-score bound above which
	// vulnerabilities are patched (default 8.0). Ignored when PatchAll is
	// set.
	CriticalThreshold float64
	// PatchAll patches every vulnerability regardless of score.
	PatchAll bool
	// PatchIntervalHours is the patch cadence (default 720, i.e. monthly).
	PatchIntervalHours float64
	// Workers bounds the evaluation worker pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Chaos, when non-nil, threads a fault injector between the engine
	// and the solvers: every design evaluation first runs the injector's
	// "evaluate" site, which may add latency, return an injected error,
	// or panic (the engine's panic recovery converts it to an error).
	// Chaos testing only; nil in production. The fingerprint ignores it —
	// injected faults never reach the memo cache, so cached results are
	// chaos-free by construction.
	Chaos *faultinject.Injector
}

// ChaosSiteEvaluate is the injector site name CaseStudy evaluations
// run when Config.Chaos is set.
const ChaosSiteEvaluate = "evaluate"

// chaosEvaluator interposes a fault-injection site between the engine
// and the real evaluator. It forwards the SolverStats extension so the
// engine's dispatch counters keep working under chaos.
type chaosEvaluator struct {
	inj  *faultinject.Injector
	next *redundancy.Evaluator
}

func (c chaosEvaluator) EvaluateSpecContext(ctx context.Context, spec paperdata.DesignSpec) (redundancy.Result, redundancy.Provenance, error) {
	if err := c.inj.HitCtx(ctx, ChaosSiteEvaluate); err != nil {
		return redundancy.Result{}, redundancy.Provenance{}, err
	}
	return c.next.EvaluateSpecContext(ctx, spec)
}

func (c chaosEvaluator) SolverStats() redundancy.SolverStats { return c.next.SolverStats() }

// datasetFingerprint content-addresses the vulnerability dataset every
// case study evaluates against: a truncated SHA-256 over its canonical
// JSON encoding (sorted by CVE ID). Computed once — the paper dataset
// is immutable per process.
var datasetFingerprint = sync.OnceValue(func() string {
	data, err := json.Marshal(paperdata.VulnDB())
	if err != nil {
		// The curated dataset always marshals; failing here means the
		// program cannot evaluate anything either.
		panic(fmt.Sprintf("redpatch: fingerprinting vulnerability dataset: %v", err))
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum[:8])
})

// fingerprint identifies everything a cached result depends on: the
// vulnerability dataset (content-addressed), the patch policy and the
// schedule. Engine snapshots (SnapshotCache/RestoreCache) carry it, so
// a cache dump taken under different inputs is rejected on restore
// rather than silently served. It is computed over the resolved values,
// not the raw fields, so Config{} and an explicit
// Config{CriticalThreshold: 8, PatchIntervalHours: 720} fingerprint
// identically — they build the same policy.
func (c Config) fingerprint() string {
	interval := c.PatchIntervalHours
	if interval <= 0 {
		interval = 720
	}
	policy := ""
	if c.PatchAll {
		policy = "all"
	} else {
		thr := c.CriticalThreshold
		if thr <= 0 {
			thr = 8.0
		}
		policy = fmt.Sprintf("thr=%g", thr)
	}
	return fmt.Sprintf("db=%s,%s,interval=%g", datasetFingerprint(), policy, interval)
}

// NewCaseStudyWithConfig builds the case study under a custom patch
// policy and schedule — the what-if knobs of the paper's §V (different
// patch schedules, different vulnerability selections).
func NewCaseStudyWithConfig(cfg Config) (*CaseStudy, error) {
	pol := patch.CriticalPolicy()
	if cfg.PatchAll {
		pol = patch.Policy{PatchAll: true}
	} else if cfg.CriticalThreshold > 0 {
		pol = patch.Policy{CriticalThreshold: cfg.CriticalThreshold}
	}
	sch := patch.MonthlySchedule()
	if cfg.PatchIntervalHours > 0 {
		sch.Interval = hours(cfg.PatchIntervalHours)
	}
	e, err := redundancy.NewEvaluator(redundancy.Options{Policy: &pol, Schedule: &sch})
	if err != nil {
		return nil, err
	}
	var de engine.DesignEvaluator = e
	if cfg.Chaos != nil {
		de = chaosEvaluator{inj: cfg.Chaos, next: e}
	}
	eng, err := engine.New(de, engine.Options{Workers: cfg.Workers, Fingerprint: cfg.fingerprint()})
	if err != nil {
		return nil, err
	}
	return &CaseStudy{eval: e, eng: eng}, nil
}

// EvaluateSpec evaluates a role-keyed design. Repeat evaluations of the
// same spec identity (tier order, roles, variants, replica counts) are
// served from the engine cache regardless of name.
func (s *CaseStudy) EvaluateSpec(spec DesignSpec) (DesignReport, error) {
	return s.EvaluateSpecCtx(context.Background(), spec)
}

// EvaluateSpecCtx is EvaluateSpec with the caller's context threaded
// through for tracing (internal/trace): when the context carries a
// tracer, the evaluation records engine and solver spans — cache
// hit/miss, which availability and security solver ran, memo hits and
// per-step durations — under the context's current span. The context
// never cancels a solve in flight; results stay shared across
// deduplicated callers.
func (s *CaseStudy) EvaluateSpecCtx(ctx context.Context, spec DesignSpec) (DesignReport, error) {
	return s.eng.EvaluateSpecCtx(ctx, spec)
}

// PaperDesigns evaluates the five design choices of the paper's §IV in
// order (D1..D5).
func (s *CaseStudy) PaperDesigns() ([]DesignReport, error) {
	designs := paperdata.Designs()
	out := make([]DesignReport, len(designs))
	for i, d := range designs {
		r, err := s.eng.EvaluateSpecCtx(context.Background(), d.Spec())
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// BaseNetwork evaluates the paper's §III case-study network
// (1 DNS + 2 WEB + 2 APP + 1 DB), whose COA the paper reports as 0.99707.
func (s *CaseStudy) BaseNetwork() (DesignReport, error) {
	return s.eng.EvaluateSpecCtx(context.Background(), paperdata.BaseDesign().Spec())
}

// PatchRates returns the aggregated patch/recovery rates per server type
// (the paper's Table V), keyed by "dns", "web", "app", "db".
func (s *CaseStudy) PatchRates() map[string]PatchRates {
	agg := s.eval.AggregatedRates()
	plans := s.eval.Plans()
	out := make(map[string]PatchRates, len(agg))
	for role, a := range agg {
		pr := PatchRates{
			PatchRate:       a.LambdaEq,
			RecoveryRate:    a.MuEq,
			DowntimeMinutes: plans[role].TotalDowntime().Minutes(),
		}
		if a.LambdaEq > 0 {
			pr.MTTPHours = a.MTTP()
		}
		if a.MuEq > 0 {
			pr.MTTRHours = a.MTTR()
		}
		out[role] = pr
	}
	return out
}

// ScatterBounds are the Eq. 3 administrator bounds: an ASP ceiling (phi)
// and a COA floor (psi).
type ScatterBounds = engine.ScatterBounds

// MultiBounds are the Eq. 4 administrator bounds over four security
// metrics and COA.
type MultiBounds = engine.MultiBounds

// FilterScatter returns the designs satisfying Eq. 3, preserving order.
func FilterScatter(reports []DesignReport, b ScatterBounds) []DesignReport {
	var out []DesignReport
	for _, r := range reports {
		if b.Satisfied(r) {
			out = append(out, r)
		}
	}
	return out
}

// FilterMulti returns the designs satisfying Eq. 4, preserving order.
func FilterMulti(reports []DesignReport, b MultiBounds) []DesignReport {
	var out []DesignReport
	for _, r := range reports {
		if b.Satisfied(r) {
			out = append(out, r)
		}
	}
	return out
}

// Pareto returns the reports not dominated on (minimize after-patch ASP,
// maximize COA), sorted by ascending ASP, then descending COA, then
// name, so the front's order is a pure function of its members.
func Pareto(reports []DesignReport) []DesignReport {
	return redundancy.Front(reports,
		func(r DesignReport) (float64, float64) { return r.After.ASP, r.COA },
		func(a, b DesignReport) int { return strings.Compare(a.Name, b.Name) })
}

// PatchPriority is one entry of the vulnerability ranking: the
// network-level effect of patching a single CVE everywhere it occurs.
type PatchPriority struct {
	// CVE identifies the vulnerability.
	CVE string
	// Hosts lists the server instances carrying it.
	Hosts []string
	// RiskReduction is the drop in network risk (ASP x AIM) from patching
	// it alone; the ranking key.
	RiskReduction float64
	// ASPAfter is the network attack success probability with only this
	// CVE patched.
	ASPAfter float64
}

// RankPatchesSpec ranks the case study's policy-selected vulnerabilities
// of a role-keyed design by the network-level risk reduction of patching
// each alone — the prioritization an administrator needs when the
// selected set does not fit one maintenance window. The ranking uses the
// study's configured policy: a PatchAll study ranks every vulnerability,
// a threshold study only its critical set.
func (s *CaseStudy) RankPatchesSpec(spec DesignSpec) ([]PatchPriority, error) {
	candidates, err := s.eval.RankPatches(spec)
	if err != nil {
		return nil, err
	}
	out := make([]PatchPriority, len(candidates))
	for i, c := range candidates {
		out[i] = PatchPriority{
			CVE:           c.Ref,
			Hosts:         c.Hosts,
			RiskReduction: c.RiskReduction,
			ASPAfter:      c.After.ASP,
		}
	}
	return out, nil
}

// CampaignRound is one maintenance round of a patch campaign.
type CampaignRound struct {
	// CVEs are the vulnerabilities patched in the round.
	CVEs []string `json:"cves"`
	// DowntimeMinutes is the round's service outage (patches plus merged
	// reboots).
	DowntimeMinutes float64 `json:"downtimeMinutes"`
}

// CampaignPlan splits one stack role's policy-selected patches across
// maintenance rounds bounded by a per-round window.
type CampaignPlan struct {
	// Role is the stack role the plan covers.
	Role string `json:"role"`
	// WindowMinutes is the per-round downtime budget.
	WindowMinutes float64 `json:"windowMinutes"`
	// Rounds are the planned rounds in execution order, most severe
	// vulnerabilities earliest.
	Rounds []CampaignRound `json:"rounds"`
	// TotalRounds counts them.
	TotalRounds int `json:"totalRounds"`
	// Deferred lists vulnerabilities whose lone patch exceeds the window
	// — always present, so API clients can tell "nothing deferred" from
	// an older server that never reported deferrals.
	Deferred []string `json:"deferred"`
	// ResidualASP traces the composite attack-surface probability of the
	// role's still-unpatched selected vulnerabilities after each
	// completed round: entry 0 is before any round; with deferrals the
	// last entry is the floor they leave behind.
	ResidualASP []float64 `json:"residualAsp"`
	// TotalDowntimeMinutes sums the rounds.
	TotalDowntimeMinutes float64 `json:"totalDowntimeMinutes"`
}

// PlanCampaign distributes the policy-selected patches of a stack role
// ("dns", "web", "webalt", ...) over successive rounds so no round's
// downtime exceeds the window — the paper's §III multi-month patching
// future work, under the study's own policy and schedule.
func (s *CaseStudy) PlanCampaign(role string, window time.Duration) (CampaignPlan, error) {
	camp, err := s.eval.PlanCampaign(role, window)
	if err != nil {
		return CampaignPlan{}, err
	}
	residual, err := s.eval.CampaignResidualASP(role, camp)
	if err != nil {
		return CampaignPlan{}, err
	}
	out := CampaignPlan{
		Role:                 role,
		WindowMinutes:        window.Minutes(),
		Rounds:               make([]CampaignRound, len(camp.Rounds)),
		TotalRounds:          camp.TotalRounds(),
		Deferred:             []string{},
		ResidualASP:          residual,
		TotalDowntimeMinutes: camp.TotalDowntime().Minutes(),
	}
	for i, r := range camp.Rounds {
		round := CampaignRound{DowntimeMinutes: r.TotalDowntime().Minutes()}
		for _, v := range r.Selected {
			round.CVEs = append(round.CVEs, v.ID)
		}
		out.Rounds[i] = round
	}
	for _, v := range camp.Deferred {
		out.Deferred = append(out.Deferred, v.ID)
	}
	return out, nil
}

// TierSweep is one tier of a role-keyed sweep: an inclusive replica
// range plus the stack variants to enumerate. An empty Variants set
// sweeps the role's own stack only; listing variants (the empty string
// stands for the base stack) multiplies the space by the stack choices —
// the paper's §V heterogeneous-redundancy exploration.
type TierSweep = engine.TierSweep

// SpecSweepRequest describes a role-keyed design-space sweep: an ordered
// list of tier sweeps plus optional administrator bounds. Designs
// failing a configured bound are dropped as they are evaluated, never
// accumulated. SweepSize counts the designs it enumerates and Validate
// rejects requests with no tiers, unknown roles or variants, and
// nonsensical replica ranges.
type SpecSweepRequest = engine.SweepSpec

// SweepSpecEach streams every report passing the request's bounds to fn
// as designs finish evaluating (completion order). fn runs on one
// collector goroutine; returning an error cancels the sweep. The total
// number of enumerated designs is returned.
func (s *CaseStudy) SweepSpecEach(ctx context.Context, req SpecSweepRequest, fn func(DesignReport) error) (int, error) {
	return s.SweepSpecEachProgress(ctx, req, fn, nil)
}

// SweepSpecEachProgress is SweepSpecEach plus a progress callback:
// progress runs on the collector goroutine after every completed
// evaluation — kept or bound-filtered — with the count of designs done
// so far and the total. redpatchd's NDJSON sweep stream derives its
// periodic progress events (done/total, cache-hit ratio, ETA) from it.
func (s *CaseStudy) SweepSpecEachProgress(ctx context.Context, req SpecSweepRequest, fn func(DesignReport) error, progress func(done, total int)) (int, error) {
	return s.eng.Sweep(ctx, req, fn, progress)
}

// EngineStats reports the evaluation engine's cache behaviour: Solves is
// the number of full model evaluations performed, Hits the number of
// requests served from the memo cache (including requests that joined an
// in-flight solve of the same design). The solver counters break the
// model work down: FactoredSolves counts network availability models
// answered by the per-tier factored solver, and TierSolves/TierFactorHits
// the per-(stack, replicas) birth–death memo misses and hits behind it.
// On the security axis, SecurityFactored counts spec evaluations served by the quotient
// (replica-symmetric) HARM evaluator, SecuritySolves the factored
// security models built — one per rollout structure, so an atomic
// design's variant structure costs two (its unpatched and fully patched
// endpoints), which every rollout of it then reuses — and
// SecurityFactorHits the model lookups served from the security memo.
// The rollout counters cover mixed-version evaluation: RolloutSolves
// rollout points evaluated by the engine, RolloutHits points served
// from (or deduplicated onto) the memo.
type EngineStats = engine.Stats

// EngineStats returns a snapshot of the case study's cache counters.
func (s *CaseStudy) EngineStats() EngineStats { return s.eng.Stats() }

// CacheEntries reports the number of completed entries in the engine's
// memo cache, evaluated designs and rollout points alike (in-flight
// solves excluded).
func (s *CaseStudy) CacheEntries() int { return s.eng.Len() }

// CheckedSpec is a design spec CachedReport validated and found cold,
// with the memo key it packed: its Evaluate solves it on the study
// without validating or keying it again.
type CheckedSpec = engine.Checked

// CachedReport is the engine's Lookup, which redpatchd's admission
// control runs ahead of the limiter: it checks spec and packs its memo
// key once for the request, serves a design already solved, with the
// zero CheckedSpec, and returns any other as a Cold CheckedSpec to
// Evaluate. An invalid spec is DesignSpec.Validate's error.
func (s *CaseStudy) CachedReport(ctx context.Context, spec DesignSpec) (DesignReport, CheckedSpec, error) {
	return s.eng.Lookup(ctx, spec)
}

// SnapshotCache writes the engine's memo cache to w as versioned JSON,
// fingerprinted by the vulnerability dataset, patch policy and schedule
// the study was built under, and reports how many entries it wrote:
// evaluated designs and rollout points, each as its key and the numbers
// its report serves. redpatchd dumps each scenario's cache this way on
// graceful shutdown so a restart keeps the warmed cache.
func (s *CaseStudy) SnapshotCache(w io.Writer) (int, error) { return s.eng.Snapshot(w) }

// RestoreCache merges a SnapshotCache dump into the engine's memo cache
// and reports how many entries it added. A dump taken under a different
// vulnerability dataset, policy or schedule — a different fingerprint —
// is rejected with engine.ErrSnapshotFingerprint, and one written by
// another format version (engine.SnapshotVersion) with
// engine.ErrSnapshotVersion; either changes nothing. Designs already
// cached (or being solved) keep their live results.
func (s *CaseStudy) RestoreCache(r io.Reader) (int, error) { return s.eng.Restore(r) }
