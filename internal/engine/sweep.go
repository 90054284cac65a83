package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"redpatch/internal/paperdata"
	"redpatch/internal/redundancy"
	"redpatch/internal/trace"
	"redpatch/internal/workpool"
)

// TierSweep is one tier of a sweep: a logical role, an inclusive replica
// range Min..Max, and the stack variants to enumerate. A Min below one
// reads as one and a Max below Min as Min, so the zero range means
// "exactly one replica". An empty Variants set sweeps the role's own
// stack only; listing variants (the empty string stands for the base
// stack) multiplies the space by the stack choices — the paper's §V
// heterogeneous-redundancy exploration. The JSON tags are the redpatchd
// v2 wire shape.
type TierSweep struct {
	Role     string   `json:"role"`
	Min      int      `json:"min"`
	Max      int      `json:"max"`
	Variants []string `json:"variants,omitempty"`
}

// replicas returns the tier's normalized inclusive replica range.
func (t TierSweep) replicas() (lo, hi int) {
	return max(t.Min, 1), max(t.Max, t.Min, 1)
}

// options returns the tier's stack choices, defaulting to the base
// stack, with the role-equals-variant spelling normalized to "".
func (t TierSweep) options() []string {
	if len(t.Variants) == 0 {
		return []string{""}
	}
	out := make([]string, len(t.Variants))
	for i, v := range t.Variants {
		if v == t.Role {
			v = ""
		}
		out[i] = v
	}
	return out
}

// SweepSpec describes a design-space sweep: an ordered list of tier
// sweeps plus optional administrator bounds. When a bound is set,
// results failing it are dropped as they arrive and never accumulate.
// The JSON tags are the redpatchd v2 wire shape.
type SweepSpec struct {
	Tiers []TierSweep `json:"tiers"`
	// Scatter, when non-nil, applies the paper's Eq. 3 bounds.
	Scatter *ScatterBounds `json:"scatter,omitempty"`
	// Multi, when non-nil, applies the paper's Eq. 4 bounds.
	Multi *MultiBounds `json:"multi,omitempty"`
}

// Validate rejects specs with no tiers, duplicate or empty roles,
// nonsensical ranges, and unknown or duplicate variant stacks.
func (s SweepSpec) Validate() error {
	if len(s.Tiers) == 0 {
		return fmt.Errorf("engine: sweep spec has no tiers")
	}
	roles := make(map[string]bool, len(s.Tiers))
	for _, t := range s.Tiers {
		if t.Role == "" {
			return fmt.Errorf("engine: sweep tier with empty role")
		}
		if roles[t.Role] {
			return fmt.Errorf("engine: duplicate sweep tier %q", t.Role)
		}
		roles[t.Role] = true
		if !paperdata.KnownStack(t.Role) {
			return fmt.Errorf("engine: sweep tier %q has no catalogued stack", t.Role)
		}
		if t.Min < 0 || t.Max < 0 {
			return fmt.Errorf("engine: negative %s range [%d,%d]", t.Role, t.Min, t.Max)
		}
		if t.Max != 0 && t.Max < t.Min {
			return fmt.Errorf("engine: inverted %s range [%d,%d]", t.Role, t.Min, t.Max)
		}
		seen := make(map[string]bool, len(t.Variants))
		for _, v := range t.options() {
			if seen[v] {
				return fmt.Errorf("engine: tier %s lists variant %q twice", t.Role, v)
			}
			seen[v] = true
			if v != "" && !paperdata.KnownStack(v) {
				return fmt.Errorf("engine: tier %s sweeps unknown variant stack %q", t.Role, v)
			}
		}
	}
	return nil
}

// SweepSize is the number of designs the spec enumerates, without
// evaluating any, saturating at math.MaxInt — ranges are request data in
// redpatchd, and a wrapped product would slip huge spaces past its size
// cap.
func (s SweepSpec) SweepSize() int {
	size := 1
	for _, t := range s.Tiers {
		lo, hi := t.replicas()
		n := (hi - lo + 1) * len(t.options())
		if n <= 0 {
			n = 1
		}
		if size > math.MaxInt/n {
			return math.MaxInt
		}
		size *= n
	}
	return size
}

// Designs enumerates the spec in lexicographic tier order: earlier tiers
// vary slowest, and within a tier replica counts vary before variant
// choices. The designs carry no name: Sweep renders a kept design's
// canonical name (DesignSpec.CanonicalName — "1d2w2a1b" for a classic
// homogeneous design, role-keyed otherwise) with its description, so a
// design the bounds drop costs no string.
func (s SweepSpec) Designs() []paperdata.DesignSpec {
	size := min(s.SweepSize(), 1<<20)
	out := make([]paperdata.DesignSpec, 0, size)
	n := len(s.Tiers)
	// choice[i] is tier i's current choice: its replica count's offset
	// from Min times the tier's variant count, plus the variant's index.
	// The last tier's choice advances fastest, carrying into the tier
	// before it, as an odometer.
	var choiceb [8]int
	choice := choiceb[:0]
	for range n {
		choice = append(choice, 0)
	}
	// The designs' tier lists are cut from blocks of up to 256 designs
	// each, not allocated one by one.
	var block []paperdata.TierSpec
	for {
		if len(block) < n {
			block = make([]paperdata.TierSpec, n*min(max(size-len(out), 1), 256))
		}
		spec := paperdata.DesignSpec{Tiers: block[:n:n]}
		block = block[n:]
		for i, t := range s.Tiers {
			lo, _ := t.replicas()
			v, per := "", max(len(t.Variants), 1)
			if len(t.Variants) > 0 && t.Variants[choice[i]%per] != t.Role {
				v = t.Variants[choice[i]%per]
			}
			spec.Tiers[i] = paperdata.TierSpec{Role: t.Role, Replicas: lo + choice[i]/per, Variant: v}
		}
		out = append(out, spec)
		i := n - 1
		for ; i >= 0; i-- {
			lo, hi := s.Tiers[i].replicas()
			if choice[i]++; choice[i] < (hi-lo+1)*max(len(s.Tiers[i].Variants), 1) {
				break
			}
			choice[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// keeps reports whether a report passes every configured bound.
func (s SweepSpec) keeps(r Report) bool {
	if s.Scatter != nil && !s.Scatter.Satisfied(r) {
		return false
	}
	if s.Multi != nil && !s.Multi.Satisfied(r) {
		return false
	}
	return true
}

// shapeOf returns the index of design d's shape among the spec's
// shapes: its variant choices, one per tier, read as a mixed-radix
// number. d must be one of the spec's designs.
func (s SweepSpec) shapeOf(d paperdata.DesignSpec) int {
	shape := 0
	for i, t := range s.Tiers {
		shape *= max(len(t.Variants), 1)
		for j, v := range t.Variants {
			if v == t.Role {
				v = ""
			}
			if v == d.Tiers[i].Variant {
				shape += j
				break
			}
		}
	}
	return shape
}

// shapes is the number of shapes the spec's designs have: one per
// combination of variant choices.
func (s SweepSpec) shapes() int {
	n := 1
	for _, t := range s.Tiers {
		n *= max(len(t.Variants), 1)
	}
	return n
}

// Sweep evaluates the whole spec on the worker pool and hands every
// report passing the spec's bounds to fn as it completes (completion
// order, not enumeration order). Rejected designs are discarded as they
// arrive, before their name and description are rendered, so the sweep
// holds nothing the caller does not keep; a kept design's report
// carries its canonical name. fn runs on a single collector
// goroutine, so it needs no locking; returning an error cancels the
// sweep. progress, when non-nil, runs on the same goroutine after every
// completed evaluation — kept or bound-filtered — with the number of
// designs done so far and the total; streaming surfaces derive their
// periodic progress events from it. The designs of one shape (one per
// combination of variant choices) key the memo from label ids their
// first design interns (shapeKeys), and the evaluator resolves each
// shape at its first design to miss the memo, so a sweep the memo
// serves whole resolves none. The whole sweep runs under one
// "engine.sweep" span, which carries the aggregate of its designs (see
// stream), and the number of enumerated designs is returned.
func (g *Engine) Sweep(ctx context.Context, spec SweepSpec, fn func(Report) error, progress func(done, total int)) (total int, err error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	designs := spec.Designs()
	ctx, sp := trace.Start(ctx, "engine.sweep",
		trace.Attr{Key: "designs", Value: len(designs)})
	defer func() { sp.EndErr(err) }()
	keys := make([]shapeKeys, min(spec.shapes(), len(designs)))
	err = stream(ctx, g, sp, designs, progress,
		func(d paperdata.DesignSpec) (entry, itemFacts, error) {
			// A valid SweepSpec enumerates only valid designs.
			var f itemFacts
			c := keys[spec.shapeOf(d)].check(g, d)
			v, out, err := g.do(ctx, nil, c, nil, &g.solves, &g.hits, func() (entry, error) {
				r, p, err := g.eval.EvaluateSpecContext(ctx, d)
				f.prov = p
				return atomicEntry(r), err
			})
			f.cache = out
			if err != nil {
				err = fmt.Errorf("engine: design %s: %w", d, err)
			}
			return v, f, err
		},
		func(i int, v entry) error {
			if !spec.keeps(v.report(designs[i], "")) {
				return nil
			}
			return fn(v.report(resolve(designs[i])))
		})
	if err != nil {
		return 0, err
	}
	return len(designs), nil
}

// shapeKeys packs the memo keys of one shape's designs in a sweep. Its
// first design interns the memo's label ids of the shape's tiers, from
// which every design then packs its key without a memo lookup. A shape
// of more tiers than ids holds keeps no ids, and its designs are keyed
// by the memo.
type shapeKeys struct {
	mu    sync.Mutex
	keyed atomic.Bool
	ids   [16]uint32
}

// check returns spec, one of the shape's designs, checked for g with
// its memo key packed in place.
func (l *shapeKeys) check(g *Engine, spec paperdata.DesignSpec) Checked {
	c := Checked{g: g, spec: spec}
	if len(spec.Tiers) > len(l.ids) {
		return c
	}
	if !l.keyed.Load() {
		l.mu.Lock()
		if !l.keyed.Load() {
			g.mu.Lock()
			for i, t := range spec.Tiers {
				l.ids[i] = g.memo.labelID(t, true)
			}
			g.mu.Unlock()
			l.keyed.Store(true)
		}
		l.mu.Unlock()
	}
	k := c.key[:0]
	for i, t := range spec.Tiers {
		k = appendTier(k, l.ids[i], t.Replicas)
	}
	if len(k) <= len(c.key) {
		c.keyLen = len(k)
	}
	return c
}

// itemFacts is what one sweep item's evaluation tells its sweep: how
// the memo served it, which solver memos its miss read, and, when the
// sweep is traced, how long it waited for a pool worker — from sweep
// start until a worker picked it up, the backlog signal admission
// control sheds against — and how long its evaluation took.
type itemFacts struct {
	cache      outcome
	prov       redundancy.Provenance
	wait, took time.Duration
}

// sweepStats is the aggregate of a traced sweep's items, which its one
// span carries in place of a span per item.
type sweepStats struct {
	items, errors int
	cache         [4]int // by outcome; items that never reached do count in none
	prov          redundancy.Provenance
	waits         []time.Duration
	took          time.Duration
}

func (a *sweepStats) add(f itemFacts, err error) {
	a.items++
	if err != nil {
		a.errors++
	}
	if f.cache == unserved {
		return
	}
	a.cache[f.cache]++
	a.prov.SecurityHits += f.prov.SecurityHits
	a.prov.SecuritySolves += f.prov.SecuritySolves
	a.prov.TierHits += f.prov.TierHits
	a.prov.TierSolves += f.prov.TierSolves
	a.waits = append(a.waits, f.wait)
	a.took += f.took
}

// record sets the aggregate on the sweep's span: the items evaluated
// and failed, the memo's hits, in-flight joins and misses, the
// security and tier-factor memo hits and solves of the misses, the
// summed evaluation time and, when any item reached the memo, the
// median and the longest queue wait of those items.
func (a *sweepStats) record(sp *trace.Span) {
	sp.SetAttr("items", a.items)
	sp.SetAttr("errors", a.errors)
	sp.SetAttr("memo_hits", a.cache[memoHit])
	sp.SetAttr("memo_inflight", a.cache[memoJoin])
	sp.SetAttr("memo_misses", a.cache[memoMiss])
	sp.SetAttr("security_memo_hits", a.prov.SecurityHits)
	sp.SetAttr("security_solves", a.prov.SecuritySolves)
	sp.SetAttr("tier_memo_hits", a.prov.TierHits)
	sp.SetAttr("tier_solves", a.prov.TierSolves)
	sp.SetAttr("evaluate_ns", a.took.Nanoseconds())
	if n := len(a.waits); n > 0 {
		slices.Sort(a.waits)
		sp.SetAttr("queue_wait_ns_p50", a.waits[(n-1)/2].Nanoseconds())
		sp.SetAttr("queue_wait_ns_max", a.waits[n-1].Nanoseconds())
	}
}

// stream is the fan-out/collect loop every sweep shares: pool workers
// run eval on the items, and one collector goroutine calls progress
// (optional) after every completed item and then collect with the
// item's index. No item opens a span of its own: when sp, the sweep's
// span, is live, the collector aggregates the items' facts and stream
// sets the aggregate on sp (sweepStats.record) before it returns. The
// first error from eval or collect stops the sweep and is returned;
// otherwise the context's error is.
func stream[T, R any](ctx context.Context, g *Engine, sp *trace.Span, items []T, progress func(done, total int), eval func(item T) (R, itemFacts, error), collect func(idx int, r R) error) error {
	start := time.Now()
	traced := sp != nil
	var stats sweepStats
	if traced {
		stats.waits = make([]time.Duration, 0, len(items))
	}
	type result struct {
		r R
		f itemFacts
	}
	done := 0
	var firstErr error
	// StreamCtx drops still-queued items the moment ctx ends — workers
	// exit before picking the next item — so a cancelled sweep releases
	// the pool immediately instead of cycling every queued item through
	// eval. The in-fn check below handles the pickup race (a worker that
	// grabbed its item just before the cancellation landed).
	workpool.StreamCtx(ctx, g.workers, items,
		func(_ int, it T) (result, error) {
			if err := ctx.Err(); err != nil {
				return result{}, err
			}
			var picked time.Duration
			if traced {
				picked = time.Since(start)
			}
			r, f, err := eval(it)
			if traced {
				f.wait, f.took = picked, time.Since(start)-picked
			}
			return result{r, f}, err
		},
		func(idx int, o result, err error) bool {
			if traced {
				stats.add(o.f, err)
			}
			if err == nil {
				done++
				if progress != nil {
					progress(done, len(items))
				}
				err = collect(idx, o.r)
			}
			if err != nil {
				firstErr = err
				return false
			}
			return true
		})
	if traced {
		stats.record(sp)
	}
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
