// Package engine is the concurrent design-space evaluation engine on top
// of internal/redundancy: a bounded worker pool fans design evaluations
// out across cores, a keyed memo cache remembers every solved design
// (design tuple + policy fingerprint → Result), and in-flight deduplication
// ensures overlapping sweeps never solve the same HARM/CTMC models twice —
// the first caller computes, every concurrent duplicate waits for that one
// result. Sweeps (sweep.go) enumerate per-tier redundancy ranges and stream
// results through administrator-bound and Pareto filters incrementally, so
// large spaces never accumulate rejected results in memory.
//
// One Engine wraps one evaluator and therefore one patch policy and
// schedule; construct one engine per policy configuration (the redpatch
// facade does this per CaseStudy) and set Options.Fingerprint when several
// engines could ever share keys downstream.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"redpatch/internal/paperdata"
	"redpatch/internal/redundancy"
	"redpatch/internal/trace"
	"redpatch/internal/workpool"
)

// DesignEvaluator is the evaluation dependency: anything that can score
// one role-keyed design spec on both paper axes, atomically (the whole
// patch round) and at a rollout point (per-tier patched fractions
// aligned with spec.Tiers). The context carries tracing, so solver-layer
// spans join the request trace. *redundancy.Evaluator is the production
// implementation; tests substitute counting or blocking fakes.
// Implementations must be safe for concurrent use.
type DesignEvaluator interface {
	EvaluateSpecContext(context.Context, paperdata.DesignSpec) (redundancy.Result, error)
	EvaluatePatched(ctx context.Context, spec paperdata.DesignSpec, patched []int) (redundancy.RolloutResult, error)
}

// Options configures an Engine.
type Options struct {
	// Workers bounds the evaluation pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Fingerprint distinguishes the wrapped evaluator's policy
	// configuration in cache keys. An engine never shares its cache, so
	// this only matters for operators that aggregate stats or persist
	// results across engines; empty is fine otherwise.
	Fingerprint string
}

// Stats counts the engine's cache behaviour. Solves is the number of
// underlying evaluator calls; Hits the number of requests served from the
// cache, including requests that waited on an in-flight solve of the same
// design instead of starting their own. The remaining counters mirror
// the wrapped evaluator's availability-solver dispatch (SolverStats)
// when it exposes one — redundancy.Evaluator does — and stay zero for
// evaluators that do not.
type Stats struct {
	Solves uint64
	Hits   uint64
	// FactoredSolves is the number of upper-layer availability solves
	// served by the factored (per-tier birth–death) path.
	FactoredSolves uint64
	// SRNSolves is the number of upper-layer solves that generated and
	// eliminated the full SRN.
	SRNSolves uint64
	// TierSolves is the number of distinct (stack, replicas) tier
	// factors solved; TierFactorHits the number served from the memo.
	TierSolves     uint64
	TierFactorHits uint64
	// SecurityFactored is the number of security evaluations served by
	// the factored (quotient) path; SecuritySolves the number of
	// factored security models built (one per variant structure);
	// SecurityFactorHits the number served from the security memo.
	SecurityFactored   uint64
	SecuritySolves     uint64
	SecurityFactorHits uint64
	// RolloutSolves is the number of rollout-point evaluations the
	// engine ran; RolloutHits the number served from (or deduplicated
	// onto) the rollout memo.
	RolloutSolves uint64
	RolloutHits   uint64
}

// SolverStatsProvider is the optional evaluator extension surfacing
// availability-solver dispatch counters through the engine's Stats.
type SolverStatsProvider interface {
	SolverStats() redundancy.SolverStats
}

// key identifies a solved model: the spec's canonical identity (tier
// order, roles, variants, replica counts) under the engine's policy
// fingerprint. The design name is deliberately excluded — renaming a
// design does not change its models — while variants are included, so
// a web tier and its webalt deployment never share a slot.
type key struct {
	fp, spec string
}

// entry is one singleflight memo slot. ready is closed once res/err are
// final; concurrent callers for the same key block on it instead of
// re-solving.
type entry[R any] struct {
	ready chan struct{}
	res   R
	err   error
}

// Engine is a concurrent, memoizing design evaluator. It is safe for
// concurrent use.
type Engine struct {
	eval    DesignEvaluator
	workers int
	fp      string

	mu    sync.Mutex
	cache map[key]*entry[redundancy.Result]
	// rollout memoizes rollout points. Its entries stay out of
	// Snapshot/Restore, whose persisted format is atomic results only.
	rollout map[key]*entry[redundancy.RolloutResult]

	solves        atomic.Uint64
	hits          atomic.Uint64
	rolloutSolves atomic.Uint64
	rolloutHits   atomic.Uint64
	// done counts completed successful cache entries (Len's O(1)
	// source): bumped per solve that memoizes and per restored entry;
	// never decremented, since only erred entries leave the cache.
	done atomic.Uint64
}

// New builds an engine over eval. eval must be safe for concurrent use
// (see redundancy.Evaluator's documented guarantee).
func New(eval DesignEvaluator, opts Options) (*Engine, error) {
	if eval == nil {
		return nil, fmt.Errorf("engine: nil evaluator")
	}
	return &Engine{
		eval:    eval,
		workers: opts.Workers,
		fp:      opts.Fingerprint,
		cache:   make(map[key]*entry[redundancy.Result]),
		rollout: make(map[key]*entry[redundancy.RolloutResult]),
	}, nil
}

// Stats returns a snapshot of the cache counters, merged with the
// evaluator's solver-dispatch counters when available.
func (g *Engine) Stats() Stats {
	st := Stats{
		Solves:        g.solves.Load(),
		Hits:          g.hits.Load(),
		RolloutSolves: g.rolloutSolves.Load(),
		RolloutHits:   g.rolloutHits.Load(),
	}
	if p, ok := g.eval.(SolverStatsProvider); ok {
		ss := p.SolverStats()
		st.FactoredSolves = ss.FactoredSolves
		st.SRNSolves = ss.SRNSolves
		st.TierSolves = ss.TierSolves
		st.TierFactorHits = ss.TierFactorHits
		st.SecurityFactored = ss.SecurityFactored
		st.SecuritySolves = ss.SecuritySolves
		st.SecurityFactorHits = ss.SecurityFactorHits
	}
	return st
}

// Evaluate scores one classic 4-tuple design through the spec path.
func (g *Engine) Evaluate(d paperdata.Design) (redundancy.Result, error) {
	if err := d.Validate(); err != nil {
		return redundancy.Result{}, err
	}
	return g.EvaluateSpec(d.Spec())
}

// EvaluateSpec scores one role-keyed design, serving repeats from the
// cache. Concurrent calls for the same spec identity share a single
// solve. The returned result carries the requested spec (name included)
// even on a cache hit.
func (g *Engine) EvaluateSpec(spec paperdata.DesignSpec) (redundancy.Result, error) {
	return g.EvaluateSpecCtx(context.Background(), spec)
}

// EvaluateSpecCtx is EvaluateSpec with the caller's context threaded
// through for tracing. When the context carries a tracer, the call
// records an "engine.evaluate" span whose cache attribute distinguishes
// a miss (this call solved), a hit (the memo had a completed entry) and
// an inflight join (a concurrent solve of the same design was in
// progress and this call waited for it). The context does not cancel an
// in-flight solve — a result being computed belongs to every caller
// deduplicated onto it, so the first caller's cancellation must not
// poison the shared entry — but a caller *joining* an in-flight solve
// abandons its wait when its context ends: the solve finishes and
// memoizes without it.
func (g *Engine) EvaluateSpecCtx(ctx context.Context, spec paperdata.DesignSpec) (redundancy.Result, error) {
	return g.evaluateSpecTraced(ctx, spec,
		trace.Attr{Key: "design", Value: spec.Name})
}

// evaluateSpecTraced opens the "engine.evaluate" span with the caller's
// attributes — the sweep path adds per-design queue wait on top of the
// design name.
func (g *Engine) evaluateSpecTraced(ctx context.Context, spec paperdata.DesignSpec, attrs ...trace.Attr) (res redundancy.Result, err error) {
	ctx, sp := trace.Start(ctx, "engine.evaluate", attrs...)
	defer func() { sp.EndErr(err) }()
	return g.evaluateSpec(ctx, sp, spec)
}

func (g *Engine) evaluateSpec(ctx context.Context, sp *trace.Span, spec paperdata.DesignSpec) (redundancy.Result, error) {
	if err := spec.Validate(); err != nil {
		return redundancy.Result{}, err
	}
	k := key{fp: g.fp, spec: spec.Key()}
	r, err := singleflight(ctx, g, sp, g.cache, k, &g.solves, &g.hits, &g.done,
		func() (redundancy.Result, error) { return g.eval.EvaluateSpecContext(ctx, spec) })
	if err != nil {
		return redundancy.Result{}, err
	}
	r.Spec = spec
	return r, nil
}

// singleflight serves key k from memo m, solving it at most once across
// concurrent callers: the first caller runs solve ("cache" attribute
// miss), a caller finding a completed entry reads it (hit), and a caller
// finding a solve in progress waits for it (inflight). solves and hits
// count misses and hits-or-joins; done, when non-nil, counts entries
// that completed successfully. The context does not cancel an in-flight
// solve — a result being computed belongs to every caller deduplicated
// onto it, so the first caller's cancellation must not poison the shared
// entry — but a caller joining an in-flight solve abandons its wait when
// its context ends: the solve finishes and memoizes without it.
func singleflight[R any](ctx context.Context, g *Engine, sp *trace.Span, m map[key]*entry[R], k key, solves, hits, done *atomic.Uint64, solve func() (R, error)) (R, error) {
	g.mu.Lock()
	e, ok := m[k]
	if !ok {
		e = &entry[R]{ready: make(chan struct{})}
		m[k] = e
		g.mu.Unlock()
		sp.SetAttr("cache", "miss")
		solves.Add(1)
		func() {
			// The entry must reach a final state no matter how the
			// evaluator exits: a panic that skipped close(ready) would
			// wedge this key forever, hanging every later caller on the
			// channel. Surface it as the entry's error instead.
			defer func() {
				if p := recover(); p != nil {
					e.err = fmt.Errorf("engine: evaluator panic for %s: %v", k.spec, p)
				}
				if e.err != nil {
					// Errors are not memoized: waiters already holding
					// this entry see it, but later callers retry rather
					// than read a possibly transient failure forever.
					g.mu.Lock()
					delete(m, k)
					g.mu.Unlock()
				} else if done != nil {
					done.Add(1)
				}
				close(e.ready)
			}()
			e.res, e.err = solve()
		}()
	} else {
		g.mu.Unlock()
		hits.Add(1)
		select {
		case <-e.ready:
			sp.SetAttr("cache", "hit")
		default:
			sp.SetAttr("cache", "inflight")
			select {
			case <-e.ready:
			case <-ctx.Done():
				var zero R
				return zero, ctx.Err()
			}
		}
	}
	return e.res, e.err
}

// Peek reports whether spec's result is already completed in the memo
// cache — no solve, no wait, no stats movement. Admission control uses
// it to let warm requests bypass the limiter: a true Peek means the
// matching EvaluateSpec call is a map lookup, safe to serve even on a
// saturated daemon. In-flight solves and erred entries read false.
func (g *Engine) Peek(spec paperdata.DesignSpec) bool {
	if spec.Validate() != nil {
		return false
	}
	k := key{fp: g.fp, spec: spec.Key()}
	g.mu.Lock()
	e, ok := g.cache[k]
	g.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-e.ready:
		return e.err == nil
	default:
		return false
	}
}

// EvaluateAll scores every design on the worker pool and returns results
// in input order — the concurrent, cached counterpart of
// redundancy.(*Evaluator).EvaluateAll, with identical output.
func (g *Engine) EvaluateAll(designs []paperdata.Design) ([]redundancy.Result, error) {
	return workpool.Map(g.workers, designs, func(_ int, d paperdata.Design) (redundancy.Result, error) {
		r, err := g.Evaluate(d)
		if err != nil {
			return redundancy.Result{}, fmt.Errorf("engine: design %s: %w", d, err)
		}
		return r, nil
	})
}
