// Package engine is the concurrent design-space evaluation engine on top
// of internal/redundancy: a bounded worker pool fans design evaluations
// out across cores, one memo remembers every solved design and rollout
// point (spec key → the numbers a report serves: two five-metric
// security summaries, COA and service availability), and in-flight
// deduplication ensures overlapping sweeps never solve the same HARM/CTMC
// models twice — the first caller computes, every concurrent duplicate
// waits for that one result. Memo entries are fixed-size slots and
// packed keys in memory the garbage collector never scans (memo.go), so
// a long-lived engine costs about 125 bytes per entry. Sweeps
// (sweep.go) enumerate per-tier redundancy ranges and stream results
// through the administrator bounds as they complete, so large spaces
// never accumulate rejected results in memory.
//
// One Engine wraps one evaluator and therefore one patch policy and
// schedule; construct one engine per policy configuration (the redpatch
// facade does this per CaseStudy). An engine never shares its memo, so
// Options.Fingerprint only stamps snapshots (snapshot.go).
package engine

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"redpatch/internal/paperdata"
	"redpatch/internal/redundancy"
	"redpatch/internal/trace"
)

// DesignEvaluator is the evaluation dependency: anything that can score
// one valid role-keyed design spec (the engine's entries validate it)
// on both paper axes, atomically (the whole patch round) and at a
// rollout point (per-tier patched counts aligned with spec.Tiers),
// returning with each result the Provenance that says which solver
// memos served it. The engine records a single evaluation's provenance
// on its "engine.evaluate" span and adds a sweep's up on the sweep's
// span. The context carries tracing, so solver-layer spans join the
// request trace. *redundancy.Evaluator is the production
// implementation; tests substitute counting or blocking fakes.
// Implementations must be safe for concurrent use.
type DesignEvaluator interface {
	EvaluateSpecContext(context.Context, paperdata.DesignSpec) (redundancy.Result, redundancy.Provenance, error)
	EvaluatePatched(ctx context.Context, spec paperdata.DesignSpec, patched []int) (redundancy.RolloutResult, redundancy.Provenance, error)
}

// Options configures an Engine.
type Options struct {
	// Workers bounds the evaluation pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Fingerprint names the wrapped evaluator's policy configuration.
	// It stamps snapshots, and Restore rejects a snapshot stamped with
	// another; memo keys do not carry it, since an engine never shares
	// its memo. Empty is fine when nothing is persisted.
	Fingerprint string
}

// Stats counts the engine's cache behaviour. Solves is the number of
// underlying evaluator calls; Hits the number of requests served from the
// cache, including requests that waited on an in-flight solve of the same
// design instead of starting their own. The remaining counters mirror
// the wrapped evaluator's availability-solver dispatch (SolverStats)
// when it exposes one — redundancy.Evaluator does — and stay zero for
// evaluators that do not. The JSON tags are the wire shape redpatchd
// serves the counters in.
type Stats struct {
	Solves uint64 `json:"solves"`
	Hits   uint64 `json:"hits"`
	// FactoredSolves is the number of upper-layer availability solves
	// served by the factored (per-tier birth–death) path.
	FactoredSolves uint64 `json:"factoredSolves"`
	// TierSolves is the number of distinct (stack, replicas) tier
	// factors solved; TierFactorHits the number served from the memo.
	TierSolves     uint64 `json:"tierSolves"`
	TierFactorHits uint64 `json:"tierFactorHits"`
	// SecurityFactored is the number of security evaluations served by
	// the factored (quotient) path; SecuritySolves the number of
	// factored security models built (one per variant structure);
	// SecurityFactorHits the number served from the security memo.
	SecurityFactored   uint64 `json:"securityFactored"`
	SecuritySolves     uint64 `json:"securitySolves"`
	SecurityFactorHits uint64 `json:"securityFactorHits"`
	// RolloutSolves is the number of rollout-point evaluations the
	// engine ran; RolloutHits the number of rollout points served from
	// (or deduplicated onto) the memo.
	RolloutSolves uint64 `json:"rolloutSolves"`
	RolloutHits   uint64 `json:"rolloutHits"`
}

// SolverStatsProvider is the optional evaluator extension surfacing
// availability-solver dispatch counters through the engine's Stats.
type SolverStatsProvider interface {
	SolverStats() redundancy.SolverStats
}

// Engine is a concurrent, memoizing design evaluator. It is safe for
// concurrent use.
type Engine struct {
	eval    DesignEvaluator
	workers int
	fp      string

	mu sync.Mutex
	// memo holds every completed solve, atomic designs and rollout
	// points alike, under the packed key of the spec (and patched
	// counts). A value is the numbers a report serves and nothing else.
	memo memo
	// inflight holds a solve only while it runs, so concurrent callers
	// for the same key wait for it instead of solving again.
	inflight flights

	solves        atomic.Uint64
	hits          atomic.Uint64
	rolloutSolves atomic.Uint64
	rolloutHits   atomic.Uint64
	// size counts the memo's entries (Len's O(1) source). Only
	// successful solves and restores insert, and nothing deletes.
	size atomic.Uint64
}

// flights is the table of solves in flight, under the hash of their
// packed keys; calls whose hashes collide chain through next. A call
// nobody joined goes back to free when its solve ends, so a miss that
// no other caller joins allocates nothing once the table has grown to
// the engine's concurrency. g.mu guards it.
type flights struct {
	calls map[uint32]*call
	free  []*call
}

// call is one solve in flight under its packed key. done is made by the
// first caller to join it, and closed once val and err are final.
type call struct {
	key  []byte
	hash uint32
	next *call
	done chan struct{}
	val  entry
	err  error
}

// find returns the call in flight under packed key k, whose hash is h.
func (f *flights) find(k []byte, h uint32) *call {
	for c := f.calls[h]; c != nil; c = c.next {
		if bytes.Equal(c.key, k) {
			return c
		}
	}
	return nil
}

// start registers a solve of k (hash h) in flight.
func (f *flights) start(k []byte, h uint32) *call {
	var c *call
	if n := len(f.free); n > 0 {
		c, f.free = f.free[n-1], f.free[:n-1]
	} else {
		c = new(call)
	}
	c.key, c.hash = append(c.key[:0], k...), h
	if f.calls == nil {
		f.calls = make(map[uint32]*call)
	}
	c.next = f.calls[c.hash]
	f.calls[c.hash] = c
	return c
}

// finish takes c out of flight with the solve's outcome: a joined call
// hands it to its waiters, and a call nobody joined is reused.
func (f *flights) finish(c *call, val entry, err error) {
	if head := f.calls[c.hash]; head == c {
		if c.next == nil {
			delete(f.calls, c.hash)
		} else {
			f.calls[c.hash] = c.next
		}
	} else {
		for p := head; ; p = p.next {
			if p.next == c {
				p.next = c.next
				break
			}
		}
	}
	c.next = nil
	if c.done == nil {
		f.free = append(f.free, c)
		return
	}
	c.val, c.err = val, err
	close(c.done)
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
		memo:    newMemo(),
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
		st.TierSolves = ss.TierSolves
		st.TierFactorHits = ss.TierFactorHits
		st.SecurityFactored = ss.SecurityFactored
		st.SecuritySolves = ss.SecuritySolves
		st.SecurityFactorHits = ss.SecurityFactorHits
	}
	return st
}

// Checked is a valid design spec, as an engine entry checked it, with
// the memo key Lookup packed for it: Evaluate solves it on its engine
// without validating or keying it again. Lookup returns the zero value
// on a hit. The key is held in place, so a Checked costs no
// allocation; a key too long for it is packed again by the solve.
type Checked struct {
	g      *Engine
	spec   paperdata.DesignSpec
	keyLen int // of key; 0 while a tier label is new to the memo
	key    [checkedKey]byte
}

// checkedKey is the packed key a Checked holds in place: two bytes a
// tier for designs of up to 32 tiers with fewer than 128 replicas each.
const checkedKey = 64

// Cold reports whether c holds a spec left to solve.
func (c Checked) Cold() bool { return c.g != nil }

// check is the engine's one validation of a design spec: every exported
// entry that takes a spec calls it, and nothing below them validates
// again.
func (g *Engine) check(spec paperdata.DesignSpec) (Checked, error) {
	if err := spec.Validate(); err != nil {
		return Checked{}, err
	}
	return Checked{g: g, spec: spec}, nil
}

// EvaluateSpecCtx scores one role-keyed design, serving repeats from the
// memo. Concurrent calls for the same spec identity share a single
// solve. The returned report carries the requested spec (name included,
// the canonical one when it has none) even on a hit. When the context
// carries a tracer, the call records an "engine.evaluate" span whose
// cache attribute distinguishes a miss (this call solved), a hit (the
// memo had a completed entry) and an inflight join (a concurrent solve
// of the same design was in progress and this call waited for it). The
// context does not cancel an in-flight solve, but a caller joining one
// abandons its wait when its context ends (see do).
func (g *Engine) EvaluateSpecCtx(ctx context.Context, spec paperdata.DesignSpec) (Report, error) {
	c, err := g.check(spec)
	if err != nil {
		return Report{}, err
	}
	return c.Evaluate(ctx)
}

// Evaluate is EvaluateSpecCtx for a Cold spec Lookup checked.
func (c Checked) Evaluate(ctx context.Context) (Report, error) {
	var desc string
	c.spec, desc = resolve(c.spec)
	v, err := c.g.evaluateSpecTraced(ctx, c)
	if err != nil {
		return Report{}, err
	}
	return v.report(c.spec, desc), nil
}

// EvaluateSummaries is EvaluateSpecCtx for a caller that reads only
// the design's security summaries before and after the patch round:
// served from and memoized in the same memo, with no report, so no
// name or description is rendered.
func (g *Engine) EvaluateSummaries(ctx context.Context, spec paperdata.DesignSpec) (before, after Summary, err error) {
	c, err := g.check(spec)
	if err != nil {
		return Summary{}, Summary{}, err
	}
	v, err := g.evaluateSpecTraced(ctx, c)
	return v.before, v.after, err
}

// evaluateSpecTraced opens the "engine.evaluate" span of one evaluation
// and returns the checked spec's memo entry.
func (g *Engine) evaluateSpecTraced(ctx context.Context, c Checked) (v entry, err error) {
	ctx, sp := startEvaluate(ctx, c.spec)
	defer func() { sp.EndErr(err) }()
	v, _, err = g.do(ctx, sp, c, nil, &g.solves, &g.hits, func() (entry, error) {
		r, p, err := g.eval.EvaluateSpecContext(ctx, c.spec)
		if err == nil {
			recordProvenance(sp, p)
		}
		return atomicEntry(r), err
	})
	return v, err
}

// recordProvenance sets a single evaluation's provenance on its live
// span: memo-served solves are closed-form arithmetic and open no span
// of their own, so the evaluation's span names the solvers and whether
// the security memo served it.
func recordProvenance(sp *trace.Span, p redundancy.Provenance) {
	if sp == nil {
		return
	}
	sp.SetAttr("security_solver", "quotient")
	if p.SecuritySolves == 0 {
		sp.SetAttr("security_memo", "hit")
	} else {
		sp.SetAttr("security_memo", "miss")
	}
	if p.TierSolves == 0 {
		sp.SetAttr("availability_solver", "factored")
	}
}

// startEvaluate opens an "engine.evaluate" span with the design's name
// (spanName), set only on a live span: an untraced evaluate names
// nothing.
func startEvaluate(ctx context.Context, spec paperdata.DesignSpec) (context.Context, *trace.Span) {
	ctx, sp := trace.Start(ctx, "engine.evaluate")
	if sp != nil {
		sp.SetAttr("design", spanName(spec))
	}
	return ctx, sp
}

// spanName is a design's name in spans: its own, or its canonical one.
func spanName(spec paperdata.DesignSpec) string {
	if spec.Name != "" {
		return spec.Name
	}
	return spec.CanonicalName()
}

// keyBuf sizes the stack buffers keys are built in: a packed key of up
// to about 45 tiers, a text key of about eight. A longer key spills to
// the heap and stays correct.
const keyBuf = 96

// outcome is how do served a key: from the memo, by joining a solve in
// flight, or by solving it. The zero outcome is a sweep item that never
// reached do: cancelled when a worker picked it up, or failed before
// its key was known.
type outcome uint8

const (
	unserved outcome = iota
	memoHit
	memoJoin
	memoMiss
)

// do serves the checked spec, at rollout point patched when that is
// not nil, from the memo, solving it at most once across concurrent
// callers: a caller finding a completed entry reads it (memoHit), a
// caller finding a solve in progress waits for it (memoJoin), and
// otherwise the caller runs solve (memoMiss). The outcome is also set
// as sp's "cache" attribute (hit, inflight or miss) when sp is live.
// solves and hits count misses and hits-or-joins. The key is the one
// Lookup packed, or is packed straight from the spec in a stack buffer;
// neither a hit nor a miss nobody joins allocates (see flights). The
// context does not cancel an in-flight solve — a result being computed
// belongs to every caller deduplicated onto it, so the first caller's
// cancellation must not poison the shared entry — but a caller joining
// an in-flight solve abandons its wait when its context ends: the solve
// finishes and memoizes without it.
func (g *Engine) do(ctx context.Context, sp *trace.Span, chk Checked, patched []int, solves, hits *atomic.Uint64, solve func() (entry, error)) (entry, outcome, error) {
	var buf [keyBuf]byte
	k := append(buf[:0], chk.key[:chk.keyLen]...)
	g.mu.Lock()
	if chk.keyLen == 0 {
		// A spec that reaches a solve interns its labels now, so that
		// its in-flight call has a key.
		k, _ = g.memo.appendKey(k, chk.spec, patched, true)
	}
	h := g.memo.hash(k)
	if v, ok := g.memo.lookup(k, h); ok {
		g.mu.Unlock()
		hits.Add(1)
		if sp != nil {
			sp.SetAttr("cache", "hit")
		}
		return v, memoHit, nil
	}
	if c := g.inflight.find(k, h); c != nil {
		if c.done == nil {
			c.done = make(chan struct{})
		}
		g.mu.Unlock()
		hits.Add(1)
		if sp != nil {
			sp.SetAttr("cache", "inflight")
		}
		select {
		case <-c.done:
			return c.val, memoJoin, c.err
		case <-ctx.Done():
			return entry{}, memoJoin, ctx.Err()
		}
	}
	c := g.inflight.start(k, h)
	g.mu.Unlock()
	if sp != nil {
		sp.SetAttr("cache", "miss")
	}
	solves.Add(1)
	var val entry
	var err error
	func() {
		// The call must reach a final state no matter how the evaluator
		// exits: a panic that skipped finish would hang every waiter on
		// this key. Surface it as the call's error instead.
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("engine: evaluator panic for %s: %v", textKey(chk.spec, patched), p)
			}
			g.mu.Lock()
			// Errors are not memoized: waiters already holding this
			// call see it, but later callers retry rather than read a
			// possibly transient failure forever.
			if err == nil {
				g.insert(k, val)
			}
			g.inflight.finish(c, val, err)
			g.mu.Unlock()
		}()
		val, err = solve()
	}()
	return val, memoMiss, err
}

// insert stores v under packed key k; g.mu must be held. A key a
// restore filled while this solve ran is overwritten with the live
// result.
func (g *Engine) insert(k []byte, v entry) {
	if g.memo.put(k, v, false) {
		g.size.Add(1)
	}
}

// textKey renders the text key of spec, at rollout point patched when
// that is not nil, for messages.
func textKey(spec paperdata.DesignSpec, patched []int) string {
	if patched != nil {
		return string(spec.AppendRolloutKey(nil, patched))
	}
	return spec.Key()
}

// Lookup checks spec and packs its memo key, once for the request. A
// design the memo holds is served as EvaluateSpecCtx serves a hit —
// counted, with its "engine.evaluate" span — and the Checked is zero.
// Otherwise (a solve in flight or none yet) Lookup returns the checked
// spec to Evaluate, moving no counter and interning no label. Admission
// control uses it to serve warm requests without a limiter slot and to
// reject invalid ones before admission.
func (g *Engine) Lookup(ctx context.Context, spec paperdata.DesignSpec) (Report, Checked, error) {
	c, err := g.check(spec)
	if err != nil {
		return Report{}, Checked{}, err
	}
	var buf [keyBuf]byte
	g.mu.Lock()
	k, known := g.memo.appendKey(buf[:0], spec, nil, false)
	v, ok := g.memo.get(k)
	ok = ok && known // a key cut short at an unknown label is no key
	g.mu.Unlock()
	if !ok {
		if known {
			c.keyLen = copy(c.key[:], k)
			if c.keyLen < len(k) {
				c.keyLen = 0
			}
		}
		return Report{}, c, nil
	}
	g.hits.Add(1)
	spec, desc := resolve(spec)
	if _, sp := startEvaluate(ctx, spec); sp != nil {
		sp.SetAttr("cache", "hit")
		sp.End()
	}
	return v.report(spec, desc), Checked{}, nil
}
