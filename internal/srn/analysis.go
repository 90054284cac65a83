package srn

import (
	"bytes"
	"errors"
	"fmt"

	"redpatch/internal/ctmc"
	"redpatch/internal/mathx"
)

// ErrVanishingLoop reports a cycle of immediate transitions: the net can
// fire immediates forever without time passing, so no CTMC exists.
var ErrVanishingLoop = errors.New("srn: cycle of immediate transitions (vanishing loop)")

// ErrStateSpaceExceeded reports that reachability exploration hit the
// configured marking cap, which usually indicates an unbounded net.
var ErrStateSpaceExceeded = errors.New("srn: state space exceeds configured maximum")

// GenerateOptions configures state-space generation. The zero value applies
// the defaults documented on the fields.
type GenerateOptions struct {
	// MaxMarkings caps the total number of explored markings (tangible and
	// vanishing); default 1 << 20.
	MaxMarkings int
	// MaxVanishingDepth caps the length of any chain of immediate firings
	// between two tangible markings; default 4096. A hit usually means a
	// vanishing loop reachable only through repeated token growth.
	MaxVanishingDepth int
}

func (o GenerateOptions) withDefaults() GenerateOptions {
	if o.MaxMarkings <= 0 {
		o.MaxMarkings = 1 << 20
	}
	if o.MaxVanishingDepth <= 0 {
		o.MaxVanishingDepth = 4096
	}
	return o
}

// StateSpace is the result of compiling a net: the set of tangible
// markings, the underlying CTMC over those markings, and bookkeeping about
// eliminated vanishing markings.
type StateSpace struct {
	markings  []Marking // tangible markings, index = CTMC state
	chain     *ctmc.Chain
	vanishing int // number of distinct vanishing markings eliminated
}

// Generate explores the reachability graph from the net's initial marking,
// eliminates vanishing markings on the fly, and assembles the tangible
// CTMC. The initial marking itself may be vanishing; its tangible successors
// seed the exploration.
func (n *Net) Generate(opts GenerateOptions) (*StateSpace, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()

	ss := &StateSpace{}
	index := make(map[string]int)     // tangible marking key -> CTMC state
	vanishing := make(map[string]int) // vanishing marking key -> its number
	var onStack []bool                // by vanishing number: on the resolve stack
	type queued struct{ state int }
	var queue []queued
	// kb is the key buffer every probe reuses: a marking's key becomes a
	// string only where a map stores a marking new to it.
	var kb []byte
	// acc collects one firing's tangible outcomes: each outcome's key
	// and marking live in storage the entry keeps across firings, so
	// only a marking new to the state space is copied out (by intern).
	type outcome struct {
		key     []byte
		marking Marking
		prob    float64
	}
	var acc []outcome
	// frames[d] is the scratch of resolve at depth d: the immediate
	// transitions enabled in its marking and the marking each one's
	// firing reaches.
	type frame struct {
		imm  []*Transition
		next Marking
	}
	var frames []frame

	// intern numbers the tangible outcome o. The markings it keeps are
	// cut from blocks of 16, not allocated one by one.
	var block Marking
	intern := func(o *outcome) (int, bool, error) {
		if id, ok := index[string(o.key)]; ok {
			return id, false, nil
		}
		if len(index)+len(vanishing) >= opts.MaxMarkings {
			return 0, false, fmt.Errorf("%w (%d markings)", ErrStateSpaceExceeded, opts.MaxMarkings)
		}
		id := len(ss.markings)
		index[string(o.key)] = id
		w := len(o.marking)
		if len(block) < w {
			block = make(Marking, 16*w)
		}
		ss.markings = append(ss.markings, block[:w:w])
		copy(block, o.marking)
		block = block[w:]
		return id, true, nil
	}

	// resolve maps an arbitrary marking to a distribution over tangible
	// markings by following immediate firings, adding it to acc. onStack
	// detects loops.
	var resolve func(m Marking, prob float64, depth int) error
	resolve = func(m Marking, prob float64, depth int) error {
		if depth > opts.MaxVanishingDepth {
			return fmt.Errorf("%w: immediate chain longer than %d", ErrVanishingLoop, opts.MaxVanishingDepth)
		}
		if depth == len(frames) {
			frames = append(frames, frame{next: make(Marking, len(m))})
		}
		f := &frames[depth]
		f.imm = n.appendEnabledImmediates(f.imm[:0], m)
		kb = m.appendKey(kb[:0])
		if len(f.imm) == 0 {
			for i := range acc {
				if bytes.Equal(acc[i].key, kb) {
					acc[i].prob += prob
					return nil
				}
			}
			if len(acc) == cap(acc) {
				acc = append(acc, outcome{})
			} else {
				acc = acc[:len(acc)+1]
			}
			o := &acc[len(acc)-1]
			o.key = append(o.key[:0], kb...)
			o.marking = append(o.marking[:0], m...)
			o.prob = prob
			return nil
		}
		v, seen := vanishing[string(kb)]
		if seen && onStack[v] {
			return fmt.Errorf("%w at marking %s", ErrVanishingLoop, n.MarkingString(m))
		}
		if !seen {
			v = len(vanishing)
			vanishing[string(kb)] = v
			onStack = append(onStack, false)
			if len(index)+len(vanishing) > opts.MaxMarkings {
				return fmt.Errorf("%w (%d markings)", ErrStateSpaceExceeded, opts.MaxMarkings)
			}
		}
		onStack[v] = true
		for _, t := range f.imm {
			n.fireInto(f.next, t, m)
			if err := resolve(f.next, prob/float64(len(f.imm)), depth+1); err != nil {
				return err
			}
			f = &frames[depth] // a deeper call may have grown frames
		}
		onStack[v] = false
		return nil
	}

	// Seed with the tangible closure of the initial marking.
	if err := resolve(n.InitialMarking(), 1, 0); err != nil {
		return nil, err
	}
	for i := range acc {
		id, fresh, err := intern(&acc[i])
		if err != nil {
			return nil, err
		}
		if fresh {
			queue = append(queue, queued{state: id})
		}
	}

	// Explore tangible markings breadth-first; record rates lazily and
	// assemble the chain once the full state count is known.
	type ratedEdge struct {
		from, to int
		rate     float64
	}
	var edges []ratedEdge

	// One transition list, fired marking, accumulator and loop-detection
	// set serve every firing: the accumulator is emptied per firing, and
	// resolve leaves onStack clear whenever it succeeds.
	var timed []*Transition
	var fired Marking
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		m := ss.markings[cur.state]
		timed = n.appendEnabledTimed(timed[:0], m)
		for _, t := range timed {
			rate := t.rateOf(m)
			if rate < 0 {
				return nil, fmt.Errorf("srn: transition %q has negative rate %v in marking %s", t.name, rate, n.MarkingString(m))
			}
			if rate == 0 {
				continue
			}
			acc = acc[:0]
			if len(fired) != len(m) {
				fired = make(Marking, len(m))
			}
			n.fireInto(fired, t, m)
			if err := resolve(fired, 1, 0); err != nil {
				return nil, err
			}
			for i := range acc {
				id, fresh, err := intern(&acc[i])
				if err != nil {
					return nil, err
				}
				if fresh {
					queue = append(queue, queued{state: id})
				}
				if id != cur.state {
					edges = append(edges, ratedEdge{from: cur.state, to: id, rate: rate * acc[i].prob})
				}
				// A timed firing that returns to the same tangible marking
				// is a stochastic no-op; dropping it preserves the CTMC.
			}
		}
	}

	ss.vanishing = len(vanishing)
	ss.chain = ctmc.New(len(ss.markings))
	for _, e := range edges {
		if err := ss.chain.AddRate(e.from, e.to, e.rate); err != nil {
			return nil, fmt.Errorf("srn: assembling CTMC: %w", err)
		}
	}
	return ss, nil
}

// NumTangible returns the number of tangible markings (CTMC states).
func (s *StateSpace) NumTangible() int { return len(s.markings) }

// NumVanishing returns the number of distinct vanishing markings that were
// eliminated during generation.
func (s *StateSpace) NumVanishing() int { return s.vanishing }

// Markings returns the tangible markings; index corresponds to CTMC state.
func (s *StateSpace) Markings() []Marking {
	out := make([]Marking, len(s.markings))
	for i, m := range s.markings {
		out[i] = m.clone()
	}
	return out
}

// SteadyState solves the underlying CTMC for its stationary distribution.
func (s *StateSpace) SteadyState(opts ctmc.SolveOptions) ([]float64, error) {
	return s.chain.SteadyState(opts)
}

// ExpectedReward computes the expected steady-state reward rate of the
// given reward function under the distribution pi — the SPNP operation the
// paper uses for capacity oriented availability.
func (s *StateSpace) ExpectedReward(pi []float64, reward RewardFunc) (float64, error) {
	if len(pi) != len(s.markings) {
		return 0, fmt.Errorf("srn: distribution has %d entries, want %d", len(pi), len(s.markings))
	}
	terms := make([]float64, len(pi))
	for i, m := range s.markings {
		terms[i] = pi[i] * reward(m)
	}
	return mathx.KahanSum(terms), nil
}

// Probability sums the stationary probability of the markings satisfying
// the predicate; used for measures such as P(service down due to patch).
func (s *StateSpace) Probability(pi []float64, pred func(m Marking) bool) (float64, error) {
	if len(pi) != len(s.markings) {
		return 0, fmt.Errorf("srn: distribution has %d entries, want %d", len(pi), len(s.markings))
	}
	var terms []float64
	for i, m := range s.markings {
		if pred(m) {
			terms = append(terms, pi[i])
		}
	}
	return mathx.KahanSum(terms), nil
}
