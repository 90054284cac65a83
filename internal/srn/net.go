// Package srn implements stochastic reward nets (SRNs): Petri nets with
// exponentially timed and immediate transitions, enabling guard functions,
// marking-dependent firing rates, equiprobable resolution of conflicts
// between immediate transitions, and rate-reward structures. Nets are
// compiled into continuous-time Markov chains (internal/ctmc) by reachability
// exploration with on-the-fly elimination of vanishing markings, which is
// the same pipeline the paper drives through the SPNP tool.
package srn

import (
	"fmt"
	"sort"
)

// Place is a token container in the net. Places are created through
// Net.AddPlace and referenced by pointer in arcs, guards and rewards.
type Place struct {
	name    string
	index   int
	initial int
}

// Kind distinguishes timed from immediate transitions.
type Kind int

const (
	// Timed transitions fire after an exponentially distributed delay.
	Timed Kind = iota + 1
	// Immediate transitions fire in zero time and have priority over all
	// timed transitions.
	Immediate
)

// String returns a human-readable transition kind.
func (k Kind) String() string {
	switch k {
	case Timed:
		return "timed"
	case Immediate:
		return "immediate"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Guard is an enabling predicate evaluated against the current marking;
// a nil Guard is treated as always true. Guards express the inter-submodel
// dependencies of the paper's Table III.
type Guard func(m Marking) bool

// RateFunc yields a marking-dependent firing rate for a timed transition.
type RateFunc func(m Marking) float64

// RewardFunc assigns a reward rate to a marking; expected steady-state
// reward is the integral the paper uses for capacity oriented availability.
type RewardFunc func(m Marking) float64

// Transition is a timed or immediate transition. Configure it with the
// fluent With*/From/To methods at net-construction time; it must not be
// mutated after the state space has been generated.
type Transition struct {
	name   string
	kind   Kind
	rate   float64
	rateFn RateFunc
	guard  Guard
	in     []*Place
	out    []*Place
}

// Kind returns whether the transition is timed or immediate.
func (t *Transition) Kind() Kind { return t.kind }

// From adds an input arc, consuming one token, from each of the given
// places.
func (t *Transition) From(places ...*Place) *Transition {
	t.in = append(t.in, places...)
	return t
}

// To adds an output arc, producing one token, to each of the given
// places.
func (t *Transition) To(places ...*Place) *Transition {
	t.out = append(t.out, places...)
	return t
}

// WithGuard attaches an enabling guard.
func (t *Transition) WithGuard(g Guard) *Transition {
	t.guard = g
	return t
}

// WithRateFunc makes a timed transition's rate marking-dependent, as the
// paper requires for the upper-layer tier transitions (rate = lambda * #up).
func (t *Transition) WithRateFunc(fn RateFunc) *Transition {
	t.rateFn = fn
	return t
}

// Net is a stochastic reward net under construction.
type Net struct {
	name        string
	places      []*Place
	transitions []*Transition
	byPlaceName map[string]*Place
	byTransName map[string]*Transition
}

// New returns an empty net with the given name.
func New(name string) *Net {
	return &Net{
		name:        name,
		byPlaceName: make(map[string]*Place),
		byTransName: make(map[string]*Transition),
	}
}

// AddPlace creates a place with the given initial token count. Place names
// must be unique within the net; AddPlace panics on duplicates because the
// model builders construct nets from static descriptions.
func (n *Net) AddPlace(name string, initial int) *Place {
	if _, dup := n.byPlaceName[name]; dup {
		panic(fmt.Sprintf("srn: duplicate place %q", name))
	}
	if initial < 0 {
		panic(fmt.Sprintf("srn: place %q has negative initial marking", name))
	}
	p := &Place{name: name, index: len(n.places), initial: initial}
	n.places = append(n.places, p)
	n.byPlaceName[name] = p
	return p
}

// AddTimedTransition creates an exponentially timed transition with the
// given (constant) rate. Use WithRateFunc for marking-dependent rates; the
// constant rate is then ignored.
func (n *Net) AddTimedTransition(name string, rate float64) *Transition {
	t := n.addTransition(name, Timed)
	t.rate = rate
	return t
}

// AddImmediateTransition creates an immediate transition. When several
// immediate transitions are enabled, each fires with equal probability.
func (n *Net) AddImmediateTransition(name string) *Transition {
	return n.addTransition(name, Immediate)
}

func (n *Net) addTransition(name string, k Kind) *Transition {
	if _, dup := n.byTransName[name]; dup {
		panic(fmt.Sprintf("srn: duplicate transition %q", name))
	}
	t := &Transition{name: name, kind: k}
	n.transitions = append(n.transitions, t)
	n.byTransName[name] = t
	return t
}

// Places returns the places in creation order.
func (n *Net) Places() []*Place {
	out := make([]*Place, len(n.places))
	copy(out, n.places)
	return out
}

// Transitions returns the transitions in creation order.
func (n *Net) Transitions() []*Transition {
	out := make([]*Transition, len(n.transitions))
	copy(out, n.transitions)
	return out
}

// InitialMarking returns the net's initial marking.
func (n *Net) InitialMarking() Marking {
	m := make(Marking, len(n.places))
	for _, p := range n.places {
		m[p.index] = p.initial
	}
	return m
}

// Validate checks structural well-formedness: every transition has at least
// one arc, and timed transitions have a positive constant rate or a rate
// function.
func (n *Net) Validate() error {
	if len(n.places) == 0 {
		return fmt.Errorf("srn %q: net has no places", n.name)
	}
	for _, t := range n.transitions {
		if len(t.in)+len(t.out) == 0 {
			return fmt.Errorf("srn %q: transition %q has no arcs", n.name, t.name)
		}
		switch t.kind {
		case Timed:
			if t.rateFn == nil && t.rate <= 0 {
				return fmt.Errorf("srn %q: timed transition %q has no positive rate", n.name, t.name)
			}
		case Immediate:
		default:
			return fmt.Errorf("srn %q: transition %q has invalid kind %v", n.name, t.name, t.kind)
		}
	}
	return nil
}

// enabled reports whether t may fire in marking m.
func (n *Net) enabled(t *Transition, m Marking) bool {
	for _, p := range t.in {
		if m[p.index] < 1 {
			return false
		}
	}
	if t.guard != nil && !t.guard(m) {
		return false
	}
	return true
}

// fire returns the marking reached by firing t in m. It assumes t is
// enabled.
func (n *Net) fire(t *Transition, m Marking) Marking {
	next := make(Marking, len(m))
	copy(next, m)
	for _, p := range t.in {
		next[p.index]--
	}
	for _, p := range t.out {
		next[p.index]++
	}
	return next
}

// rateOf returns the firing rate of a timed transition in marking m.
func (t *Transition) rateOf(m Marking) float64 {
	if t.rateFn != nil {
		return t.rateFn(m)
	}
	return t.rate
}

// enabledImmediates returns the enabled immediate transitions in m, or
// nil when none are enabled (m is tangible).
func (n *Net) enabledImmediates(m Marking) []*Transition {
	var out []*Transition
	for _, t := range n.transitions {
		if t.kind == Immediate && n.enabled(t, m) {
			out = append(out, t)
		}
	}
	return out
}

// enabledTimed returns the timed transitions enabled in m.
func (n *Net) enabledTimed(m Marking) []*Transition {
	var out []*Transition
	for _, t := range n.transitions {
		if t.kind == Timed && n.enabled(t, m) {
			out = append(out, t)
		}
	}
	return out
}

// TimedRate returns the firing rate of a timed transition in marking m
// and whether the transition is enabled there.
func (n *Net) TimedRate(t *Transition, m Marking) (float64, bool) {
	if t.kind != Timed || !n.enabled(t, m) {
		return 0, false
	}
	return t.rateOf(m), true
}

// EnabledImmediates returns the enabled immediate transitions of m
// (exported for simulators).
func (n *Net) EnabledImmediates(m Marking) []*Transition { return n.enabledImmediates(m) }

// Fire returns the marking reached by firing t in m. Firing a disabled
// transition is a programming error and panics.
func (n *Net) Fire(t *Transition, m Marking) Marking {
	if !n.enabled(t, m) {
		panic(fmt.Sprintf("srn: firing disabled transition %q in %s", t.name, n.MarkingString(m)))
	}
	return n.fire(t, m)
}

// MarkingString renders a marking as "Place:count" pairs of the non-empty
// places, sorted by place name; used in diagnostics and tests.
func (n *Net) MarkingString(m Marking) string {
	type pc struct {
		name  string
		count int
	}
	var parts []pc
	for _, p := range n.places {
		if m[p.index] > 0 {
			parts = append(parts, pc{name: p.name, count: m[p.index]})
		}
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].name < parts[j].name })
	s := "{"
	for i, q := range parts {
		if i > 0 {
			s += " "
		}
		if q.count == 1 {
			s += q.name
		} else {
			s += fmt.Sprintf("%s:%d", q.name, q.count)
		}
	}
	return s + "}"
}

// IncidenceMatrix returns the net's incidence matrix C with one row per
// place (creation order) and one column per transition (creation order):
// C[p][t] = tokens produced into p by t minus tokens consumed from p by
// t.
func (n *Net) IncidenceMatrix() [][]int {
	c := make([][]int, len(n.places))
	for i := range c {
		c[i] = make([]int, len(n.transitions))
	}
	for j, t := range n.transitions {
		for _, p := range t.in {
			c[p.index][j]--
		}
		for _, p := range t.out {
			c[p.index][j]++
		}
	}
	return c
}
