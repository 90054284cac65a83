package srn

import (
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
	index := make(map[string]int) // tangible marking key -> CTMC state
	vanishingSeen := make(map[string]bool)

	// resolve maps an arbitrary marking to a distribution over tangible
	// markings by following immediate firings. onStack detects loops.
	var resolve func(m Marking, prob float64, onStack map[string]bool, depth int, acc map[string]tangibleMass) error
	type queued struct{ state int }
	var queue []queued

	intern := func(m Marking) (int, bool, error) {
		k := m.key()
		if id, ok := index[k]; ok {
			return id, false, nil
		}
		if len(index)+len(vanishingSeen) >= opts.MaxMarkings {
			return 0, false, fmt.Errorf("%w (%d markings)", ErrStateSpaceExceeded, opts.MaxMarkings)
		}
		id := len(ss.markings)
		index[k] = id
		ss.markings = append(ss.markings, m)
		return id, true, nil
	}

	resolve = func(m Marking, prob float64, onStack map[string]bool, depth int, acc map[string]tangibleMass) error {
		if depth > opts.MaxVanishingDepth {
			return fmt.Errorf("%w: immediate chain longer than %d", ErrVanishingLoop, opts.MaxVanishingDepth)
		}
		imm := n.enabledImmediates(m)
		if len(imm) == 0 {
			k := m.key()
			tm := acc[k]
			tm.marking = m
			tm.prob += prob
			acc[k] = tm
			return nil
		}
		k := m.key()
		if onStack[k] {
			return fmt.Errorf("%w at marking %s", ErrVanishingLoop, n.MarkingString(m))
		}
		if !vanishingSeen[k] {
			vanishingSeen[k] = true
			if len(index)+len(vanishingSeen) > opts.MaxMarkings {
				return fmt.Errorf("%w (%d markings)", ErrStateSpaceExceeded, opts.MaxMarkings)
			}
		}
		onStack[k] = true
		defer delete(onStack, k)

		for _, t := range imm {
			next := n.fire(t, m)
			if err := resolve(next, prob/float64(len(imm)), onStack, depth+1, acc); err != nil {
				return err
			}
		}
		return nil
	}

	// Seed with the tangible closure of the initial marking.
	initAcc := make(map[string]tangibleMass)
	if err := resolve(n.InitialMarking(), 1, make(map[string]bool), 0, initAcc); err != nil {
		return nil, err
	}
	for _, tm := range initAcc {
		id, fresh, err := intern(tm.marking)
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

	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		m := ss.markings[cur.state]
		for _, t := range n.enabledTimed(m) {
			rate := t.rateOf(m)
			if rate < 0 {
				return nil, fmt.Errorf("srn: transition %q has negative rate %v in marking %s", t.name, rate, n.MarkingString(m))
			}
			if rate == 0 {
				continue
			}
			acc := make(map[string]tangibleMass)
			if err := resolve(n.fire(t, m), 1, make(map[string]bool), 0, acc); err != nil {
				return nil, err
			}
			for _, tm := range acc {
				id, fresh, err := intern(tm.marking)
				if err != nil {
					return nil, err
				}
				if fresh {
					queue = append(queue, queued{state: id})
				}
				if id != cur.state {
					edges = append(edges, ratedEdge{from: cur.state, to: id, rate: rate * tm.prob})
				}
				// A timed firing that returns to the same tangible marking
				// is a stochastic no-op; dropping it preserves the CTMC.
			}
		}
	}

	ss.vanishing = len(vanishingSeen)
	ss.chain = ctmc.New(len(ss.markings))
	for _, e := range edges {
		if err := ss.chain.AddRate(e.from, e.to, e.rate); err != nil {
			return nil, fmt.Errorf("srn: assembling CTMC: %w", err)
		}
	}
	return ss, nil
}

type tangibleMass struct {
	marking Marking
	prob    float64
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
