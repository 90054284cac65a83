package redundancy

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"

	"redpatch/internal/availability"
	"redpatch/internal/harm"
	"redpatch/internal/paperdata"
	"redpatch/internal/trace"
)

// A design evaluation splits in two. Its shape is everything that does
// not depend on replica counts: the spec's roles and stacks in order,
// the quotient class of each tier group, the compiled security models of
// the patch states it has been evaluated at, and the availability tier
// template (one tier per group, in logical order, with its stack's
// aggregated rates), validated once. The rest is arithmetic: class
// counts from the replicas, Compiled.Evaluate, tier-factor lookups and
// the composition. The evaluator memoizes shapes, so designs that differ
// only in replica counts — a sweep's — share one, and
// EvaluateSpecContext and EvaluatePatched are each a shape lookup plus
// the arithmetic.

// Provenance counts which memos served one evaluation: the compiled
// security models it read from the security memo or built, and the tier
// factors it read from the tier-factor memo or solved. An evaluation
// returns it rather than recording it on the caller's span, so the
// engine records a single evaluation's on that evaluation's span and
// adds a sweep's designs up on the sweep's.
type Provenance struct {
	SecurityHits, SecuritySolves int
	TierHits, TierSolves         int
}

// shape is the replica-independent part of the designs that share one
// spec's roles and stacks, in order.
type shape struct {
	e *Evaluator
	// order lists the spec.Tiers indices in logical order; class maps
	// each spec.Tiers index to its quotient class, numbered in the
	// order paperdata.FoldRollout folds them.
	order   []int
	class   []int
	classes int
	// tiers is the availability tier template in logical order, with
	// the stack of each tier beside it; a design sets the sizes.
	tiers  []availability.Tier
	stacks []string
	// before and after are the all-unpatched and all-patched security
	// models, the atomic endpoints; points holds the mixed rollout
	// patterns' models under one byte per class ('u', 'p', or 'x' for
	// a class split by the rollout). Each is filled on first use.
	before, after atomic.Pointer[harm.Compiled]
	mu            sync.Mutex
	points        map[string]*harm.Compiled
}

// shapeOf returns the shape of a valid spec, building and memoizing it
// on first use. Building it solves the rates of a stack no design has
// used yet; the security models are compiled as designs first need
// them. The probe builds its key in a stack buffer, so a memoized shape
// costs no allocation.
func (e *Evaluator) shapeOf(spec paperdata.DesignSpec) (*shape, error) {
	var kb [keyBuf]byte
	k := kb[:0]
	for _, t := range spec.Tiers {
		k = append(append(k, t.Role...), '/')
		k = append(append(k, t.Stack()...), ';')
	}
	e.mu.Lock()
	s := e.shapes[string(k)]
	e.mu.Unlock()
	if s != nil {
		return s, nil
	}
	s, err := e.newShape(spec)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if old := e.shapes[string(k)]; old != nil {
		return old, nil // a concurrent first use built it too
	}
	e.shapes[string(k)] = s
	return s, nil
}

// newShape builds the shape of spec. Tier names must be unique in the
// network model, so a stack deployed in several groups gets an ordinal
// suffix past the first; the template is validated here, once, and
// every design of the shape composes it unchecked.
func (e *Evaluator) newShape(spec paperdata.DesignSpec) (*shape, error) {
	s := &shape{
		e:      e,
		order:  spec.AppendLogicalOrder(nil),
		class:  make([]int, len(spec.Tiers)),
		points: make(map[string]*harm.Compiled),
	}
	for x, i := range s.order {
		g := spec.Tiers[i]
		c := s.classes
		for _, k := range s.order[:x] {
			if o := spec.Tiers[k]; o.Role == g.Role && o.Stack() == g.Stack() {
				c = s.class[k]
				break
			}
		}
		if c == s.classes {
			s.classes++
		}
		s.class[i] = c

		stack := g.Stack()
		agg, err := e.ratesFor(stack)
		if err != nil {
			return nil, err
		}
		name, n := stack, 1
		for _, st := range s.stacks {
			if st == stack {
				n++
			}
		}
		if n > 1 {
			name = stack + "#" + strconv.Itoa(n)
		}
		s.tiers = append(s.tiers, availability.Tier{
			Name:     name,
			Group:    g.Role,
			N:        g.Replicas,
			LambdaEq: agg.LambdaEq,
			MuEq:     agg.MuEq,
		})
		s.stacks = append(s.stacks, stack)
	}
	if err := (availability.NetworkModel{Tiers: s.tiers}).Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Stack buffer sizes for a design's arithmetic: room for the keys and
// class counts of designs up to about eight tiers, past which append
// moves them to the heap.
const (
	keyBuf   = 160
	classBuf = 16
)

// evaluate scores one design of the shape atomically: both sides of the
// patch round from the endpoint models, at the class counts, and the
// availability with every server on the patch cycle.
func (s *shape) evaluate(ctx context.Context, spec paperdata.DesignSpec) (res Result, p Provenance, err error) {
	res.Spec = spec
	var countb [classBuf]int
	counts := countb[:0]
	for range s.classes {
		counts = append(counts, 0)
	}
	for i, t := range spec.Tiers {
		counts[s.class[i]] += t.Replicas
	}
	bm, err := s.endpoint(ctx, &p, &s.before, spec, false)
	if err != nil {
		return Result{}, p, err
	}
	am, err := s.endpoint(ctx, &p, &s.after, spec, true)
	if err != nil {
		return Result{}, p, err
	}
	s.e.securityFactored.Add(1)
	if res.Before, err = bm.Evaluate(counts); err != nil {
		return Result{}, p, err
	}
	if res.After, err = am.Evaluate(counts); err != nil {
		return Result{}, p, err
	}
	sol, err := s.solve(ctx, &p, spec, nil)
	if err != nil {
		return Result{}, p, err
	}
	res.COA = sol.COA
	res.ServiceAvailability = sol.ServiceAvailability
	return res, p, nil
}

// evaluatePatched scores one design of the shape at per-tier patched
// counts (aligned with spec.Tiers, each within its group's replicas):
// security on the model of the point's patch pattern, at the
// sub-classed counts — per class its unpatched replicas, then its
// patched ones, the classes the rollout does not split counted once —
// and availability on mixed-version tier factors. The result's
// Fractions is nil and Patched aliases patched.
func (s *shape) evaluatePatched(ctx context.Context, spec paperdata.DesignSpec, patched []int) (res RolloutResult, p Provenance, err error) {
	res.Spec, res.Patched = spec, patched
	var totalb, patchedb [classBuf]int
	total, done := totalb[:0], patchedb[:0]
	for range s.classes {
		total, done = append(total, 0), append(done, 0)
	}
	for i, t := range spec.Tiers {
		total[s.class[i]] += t.Replicas
		done[s.class[i]] += patched[i]
	}
	var countb [2 * classBuf]int
	var patternb [classBuf]byte
	counts, pattern := countb[:0], patternb[:0]
	unpatched, allPatched := true, true
	for c, n := range total {
		p := done[c]
		switch {
		case p == 0:
			pattern = append(pattern, 'u')
			counts = append(counts, n)
			allPatched = false
		case p == n:
			pattern = append(pattern, 'p')
			counts = append(counts, n)
			unpatched = false
		default:
			pattern = append(pattern, 'x')
			counts = append(counts, n-p, p)
			unpatched, allPatched = false, false
		}
	}
	var model *harm.Compiled
	switch {
	case unpatched:
		model, err = s.endpoint(ctx, &p, &s.before, spec, false)
	case allPatched:
		model, err = s.endpoint(ctx, &p, &s.after, spec, true)
	default:
		model, err = s.point(ctx, &p, pattern, spec, patched)
	}
	if err != nil {
		return RolloutResult{}, p, err
	}
	if res.Security, err = model.Evaluate(counts); err != nil {
		return RolloutResult{}, p, err
	}
	sol, err := s.solve(ctx, &p, spec, patched)
	if err != nil {
		return RolloutResult{}, p, err
	}
	res.COA = sol.COA
	res.ServiceAvailability = sol.ServiceAvailability
	return res, p, nil
}

// endpoint returns the shape's all-unpatched (patchedAll false) or
// all-patched model, compiling it on first use from spec through the
// evaluator's security memo. A model the shape already holds counts as
// a security-memo hit.
func (s *shape) endpoint(ctx context.Context, p *Provenance, slot *atomic.Pointer[harm.Compiled], spec paperdata.DesignSpec, patchedAll bool) (*harm.Compiled, error) {
	if m := slot.Load(); m != nil {
		s.e.securityHits.Add(1)
		p.SecurityHits++
		return m, nil
	}
	var patched []int
	if patchedAll {
		patched = make([]int, len(spec.Tiers))
		for i, t := range spec.Tiers {
			patched[i] = t.Replicas
		}
	}
	m, err := s.resolve(ctx, p, spec, patched)
	if err != nil {
		return nil, err
	}
	slot.Store(m)
	return m, nil
}

// point returns the model of a mixed rollout pattern, compiling it on
// first use from spec at patched.
func (s *shape) point(ctx context.Context, p *Provenance, pattern []byte, spec paperdata.DesignSpec, patched []int) (*harm.Compiled, error) {
	s.mu.Lock()
	m := s.points[string(pattern)]
	s.mu.Unlock()
	if m != nil {
		s.e.securityHits.Add(1)
		p.SecurityHits++
		return m, nil
	}
	m, err := s.resolve(ctx, p, spec, patched)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.points[string(pattern)] = m
	s.mu.Unlock()
	return m, nil
}

// resolve reads the model of spec at patched (nil patches nothing) from
// the evaluator's security memo, building it on a miss: the memo key is
// the rollout structure paperdata.FoldRollout folds, shared by every
// shape whose quotient is the same.
func (s *shape) resolve(ctx context.Context, p *Provenance, spec paperdata.DesignSpec, patched []int) (*harm.Compiled, error) {
	var kb [keyBuf]byte
	var cb [classBuf]int
	key, _ := paperdata.FoldRollout(kb[:0], cb[:0], spec, patched)
	m, hit, err := s.e.securityModel(ctx, key, func() paperdata.RolloutQuotient {
		if patched == nil {
			patched = make([]int, len(spec.Tiers))
		}
		return paperdata.SpecRolloutQuotient(spec, patched)
	})
	if err != nil {
		return nil, err
	}
	if hit {
		p.SecurityHits++
	} else {
		p.SecuritySolves++
	}
	return m, nil
}

// solve composes the design's availability at per-tier patched counts
// (aligned with spec.Tiers; nil patches every server, the atomic
// design) in pooled scratch.
func (s *shape) solve(ctx context.Context, p *Provenance, spec paperdata.DesignSpec, patched []int) (availability.NetworkSolution, error) {
	ws := s.e.getWorkspace()
	sol, err := s.compose(ctx, p, ws, spec, patched)
	s.e.workspaces.Put(ws)
	return sol, err
}

// compose is solve in ws: the template at the design's sizes, its tier
// factors read under one acquisition of the evaluator's mutex, and
// their composition. When every tier factor is memoized the solve is
// closed-form arithmetic and opens no span; otherwise it runs under an
// "availability.solve" span recording how many tier factors came from
// the memo and how many were solved.
func (s *shape) compose(ctx context.Context, p *Provenance, ws *workspace, spec paperdata.DesignSpec, patched []int) (availability.NetworkSolution, error) {
	e := s.e
	ws.tiers = append(ws.tiers[:0], s.tiers...)
	ws.patched = ws.patched[:0]
	for j, i := range s.order {
		n := spec.Tiers[i].Replicas
		ws.tiers[j].N = n
		if patched != nil {
			n = patched[i]
		}
		ws.patched = append(ws.patched, n)
	}
	nm := availability.NetworkModel{Tiers: ws.tiers}
	ws.factors = ws.factors[:0]
	e.mu.Lock()
	for j, t := range ws.tiers {
		f, ok := e.factors[factorKey{stack: s.stacks[j], n: t.N, patched: ws.patched[j]}]
		if !ok {
			break
		}
		ws.factors = append(ws.factors, f)
	}
	e.mu.Unlock()
	e.factoredSolves.Add(1)
	if len(ws.factors) == len(ws.tiers) {
		e.tierFactorHits.Add(uint64(len(ws.tiers)))
		p.TierHits += len(ws.tiers)
		return availability.ComposeValid(nm, ws.factors, &ws.compose)
	}

	ctx, sp := trace.Start(ctx, "availability.solve",
		trace.Attr{Key: "tiers", Value: len(ws.tiers)})
	sp.SetAttr("solver", "factored")
	ws.factors = ws.factors[:0]
	hits := 0
	for j, t := range ws.tiers {
		f, hit, err := e.tierFactorFor(ctx, s.stacks[j], t, ws.patched[j])
		if err != nil {
			sp.EndErr(err)
			return availability.NetworkSolution{}, err
		}
		if hit {
			hits++
		}
		ws.factors = append(ws.factors, f)
	}
	sp.SetAttr("tier_memo_hits", hits)
	sp.SetAttr("tier_solves", len(ws.tiers)-hits)
	p.TierHits += hits
	p.TierSolves += len(ws.tiers) - hits
	sol, err := availability.ComposeValid(nm, ws.factors, &ws.compose)
	sp.EndErr(err)
	return sol, err
}
