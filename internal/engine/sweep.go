package engine

import (
	"context"
	"fmt"
	"math"
	"time"

	"redpatch/internal/paperdata"
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
	tiers := make([]paperdata.TierSpec, n)
	// The designs' tier lists are cut from blocks of up to 256 designs
	// each, not allocated one by one.
	var block []paperdata.TierSpec
	var walk func(i int)
	walk = func(i int) {
		if i == n {
			if len(block) < n {
				block = make([]paperdata.TierSpec, n*min(max(size-len(out), 1), 256))
			}
			spec := paperdata.DesignSpec{Tiers: block[:n:n]}
			block = block[n:]
			copy(spec.Tiers, tiers)
			out = append(out, spec)
			return
		}
		t := s.Tiers[i]
		lo, hi := t.replicas()
		for n := lo; n <= hi; n++ {
			for _, v := range t.options() {
				tiers[i] = paperdata.TierSpec{Role: t.Role, Replicas: n, Variant: v}
				walk(i + 1)
			}
		}
	}
	walk(0)
	return out
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
// periodic progress events from it. The whole sweep runs under an
// "engine.sweep" span, and the number of enumerated designs is
// returned.
func (g *Engine) Sweep(ctx context.Context, spec SweepSpec, fn func(Report) error, progress func(done, total int)) (total int, err error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	designs := spec.Designs()
	ctx, sp := trace.Start(ctx, "engine.sweep",
		trace.Attr{Key: "designs", Value: len(designs)})
	defer func() { sp.EndErr(err) }()
	err = stream(ctx, g, designs, progress,
		func(d paperdata.DesignSpec, wait trace.Attr) (entry, error) {
			// A valid SweepSpec enumerates only valid designs. Only a
			// traced sweep names a design it may yet drop.
			v, err := g.evaluateSpecTraced(ctx, Checked{g: g, spec: d}, wait)
			if err != nil {
				err = fmt.Errorf("engine: design %s: %w", d, err)
			}
			return v, err
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

// stream is the fan-out/collect loop every sweep shares: pool workers
// run eval on the items, and one collector goroutine calls progress
// (optional) after every completed item and then collect with the
// item's index. eval receives the item's queue wait — the time from
// sweep start until a pool worker picked it up, the backlog signal
// admission control sheds against — as a span attribute for its
// evaluate span; an untraced stream leaves the attribute's value nil,
// as there is no span to carry it. The first error from eval or
// collect stops the sweep and is returned; otherwise the context's
// error is.
func stream[T, R any](ctx context.Context, g *Engine, items []T, progress func(done, total int), eval func(item T, wait trace.Attr) (R, error), collect func(idx int, r R) error) error {
	start := time.Now()
	traced := trace.FromContext(ctx) != nil
	done := 0
	var firstErr error
	// StreamCtx drops still-queued items the moment ctx ends — workers
	// exit before picking the next item — so a cancelled sweep releases
	// the pool immediately instead of cycling every queued item through
	// eval. The in-fn check below handles the pickup race (a worker that
	// grabbed its item just before the cancellation landed).
	workpool.StreamCtx(ctx, g.workers, items,
		func(_ int, it T) (R, error) {
			if err := ctx.Err(); err != nil {
				var zero R
				return zero, err
			}
			wait := trace.Attr{Key: "queue_wait_ns"}
			if traced {
				wait.Value = time.Since(start).Nanoseconds()
			}
			return eval(it, wait)
		},
		func(idx int, r R, err error) bool {
			if err == nil {
				done++
				if progress != nil {
					progress(done, len(items))
				}
				err = collect(idx, r)
			}
			if err != nil {
				firstErr = err
				return false
			}
			return true
		})
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
