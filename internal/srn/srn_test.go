package srn

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"redpatch/internal/ctmc"
	"redpatch/internal/mathx"
)

// upDownNet builds the simplest availability SRN: one token cycling between
// up and down through two timed transitions.
func upDownNet(t *testing.T, lambda, mu float64) (*Net, *Place, *Place) {
	t.Helper()
	n := New("updown")
	up := n.AddPlace("Pup", 1)
	down := n.AddPlace("Pdown", 0)
	n.AddTimedTransition("Tfail", lambda).From(up).To(down)
	n.AddTimedTransition("Trepair", mu).From(down).To(up)
	return n, up, down
}

func solve(t *testing.T, n *Net) (*StateSpace, []float64) {
	t.Helper()
	ss, err := n.Generate(GenerateOptions{})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	pi, err := ss.SteadyState(ctmc.SolveOptions{})
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	return ss, pi
}

func TestUpDownSteadyState(t *testing.T) {
	const lambda, mu = 0.2, 1.6
	n, up, _ := upDownNet(t, lambda, mu)
	ss, pi := solve(t, n)
	if ss.NumTangible() != 2 {
		t.Fatalf("NumTangible = %d, want 2", ss.NumTangible())
	}
	pUp, err := ss.Probability(pi, func(m Marking) bool { return m.Tokens(up) == 1 })
	if err != nil {
		t.Fatal(err)
	}
	want := mu / (lambda + mu)
	if !mathx.AlmostEqual(pUp, want, 1e-10) {
		t.Errorf("P(up) = %v, want %v", pUp, want)
	}
}

func TestImmediateElimination(t *testing.T) {
	// up --timed--> staging --immediate--> down --timed--> up.
	// The staging marking must be eliminated: 2 tangible states.
	n := New("elim")
	up := n.AddPlace("up", 1)
	staging := n.AddPlace("staging", 0)
	down := n.AddPlace("down", 0)
	n.AddTimedTransition("Tfail", 1).From(up).To(staging)
	n.AddImmediateTransition("Tmove").From(staging).To(down)
	n.AddTimedTransition("Trepair", 2).From(down).To(up)

	ss, pi := solve(t, n)
	if ss.NumTangible() != 2 {
		t.Fatalf("NumTangible = %d, want 2", ss.NumTangible())
	}
	if ss.NumVanishing() != 1 {
		t.Errorf("NumVanishing = %d, want 1", ss.NumVanishing())
	}
	pUp, err := ss.Probability(pi, func(m Marking) bool { return m.Tokens(up) == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(pUp, 2.0/3.0, 1e-10) {
		t.Errorf("P(up) = %v, want 2/3", pUp)
	}
}

func TestImmediateWeights(t *testing.T) {
	// A vanishing marking enables one immediate transition into branch a
	// and three into branch b; enabled immediates are equiprobable, so the
	// split is 1:3. Each branch returns at the same rate, so steady-state
	// occupancy of the branches must be 0.25 : 0.75 of the total branch
	// mass.
	n := New("weights")
	src := n.AddPlace("src", 1)
	mid := n.AddPlace("mid", 0)
	a := n.AddPlace("a", 0)
	bp := n.AddPlace("b", 0)
	n.AddTimedTransition("Tgo", 1).From(src).To(mid)
	n.AddImmediateTransition("TtoA").From(mid).To(a)
	for _, name := range []string{"TtoB1", "TtoB2", "TtoB3"} {
		n.AddImmediateTransition(name).From(mid).To(bp)
	}
	n.AddTimedTransition("TbackA", 1).From(a).To(src)
	n.AddTimedTransition("TbackB", 1).From(bp).To(src)

	ss, pi := solve(t, n)
	pA, err := ss.Probability(pi, func(m Marking) bool { return m.Tokens(a) == 1 })
	if err != nil {
		t.Fatal(err)
	}
	pB, err := ss.Probability(pi, func(m Marking) bool { return m.Tokens(bp) == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(pB/pA, 3, 1e-9) {
		t.Errorf("P(b)/P(a) = %v, want 3", pB/pA)
	}
}

func TestGuardDisablesTransition(t *testing.T) {
	n := New("guard")
	up := n.AddPlace("up", 1)
	down := n.AddPlace("down", 0)
	flag := n.AddPlace("flag", 0) // never marked
	n.AddTimedTransition("Tfail", 1).From(up).To(down).
		WithGuard(func(m Marking) bool { return m.Tokens(flag) == 1 })
	n.AddTimedTransition("Trepair", 1).From(down).To(up)

	ss, _ := solve(t, n)
	if ss.NumTangible() != 1 {
		t.Errorf("NumTangible = %d, want 1 (guard blocks the only move)", ss.NumTangible())
	}
}

func TestVanishingLoopDetected(t *testing.T) {
	n := New("loop")
	a := n.AddPlace("a", 1)
	b := n.AddPlace("b", 0)
	n.AddImmediateTransition("Tab").From(a).To(b)
	n.AddImmediateTransition("Tba").From(b).To(a)
	_, err := n.Generate(GenerateOptions{})
	if !errors.Is(err, ErrVanishingLoop) {
		t.Errorf("expected ErrVanishingLoop, got %v", err)
	}
}

func TestUnboundedNetCapped(t *testing.T) {
	n := New("unbounded")
	clock := n.AddPlace("clock", 1)
	pool := n.AddPlace("pool", 0)
	n.AddTimedTransition("Tgen", 1).From(clock).To(clock).To(pool)
	_, err := n.Generate(GenerateOptions{MaxMarkings: 100})
	if !errors.Is(err, ErrStateSpaceExceeded) {
		t.Errorf("expected ErrStateSpaceExceeded, got %v", err)
	}
}

func TestMarkingDependentRates(t *testing.T) {
	// Two independent servers patching at rate lambda each (rate = lambda *
	// #up) and recovering at mu each: occupancy is Binomial(2, pUp).
	const lambda, mu = 0.05, 1.5
	n := New("tier")
	up := n.AddPlace("up", 2)
	down := n.AddPlace("down", 0)
	n.AddTimedTransition("Tpatch", 0).From(up).To(down).
		WithRateFunc(func(m Marking) float64 { return lambda * float64(m.Tokens(up)) })
	n.AddTimedTransition("Trecover", 0).From(down).To(up).
		WithRateFunc(func(m Marking) float64 { return mu * float64(m.Tokens(down)) })

	ss, pi := solve(t, n)
	if ss.NumTangible() != 3 {
		t.Fatalf("NumTangible = %d, want 3", ss.NumTangible())
	}
	pUp := mu / (lambda + mu)
	for k := 0; k <= 2; k++ {
		got, err := ss.Probability(pi, func(m Marking) bool { return m.Tokens(up) == k })
		if err != nil {
			t.Fatal(err)
		}
		want := mathx.Binomial(2, k) * math.Pow(pUp, float64(k)) * math.Pow(1-pUp, float64(2-k))
		if !mathx.AlmostEqual(got, want, 1e-9) {
			t.Errorf("P(#up=%d) = %v, want %v", k, got, want)
		}
	}
}

func TestExpectedRewardAndMeanTokens(t *testing.T) {
	const lambda, mu = 0.5, 1.5
	n, up, _ := upDownNet(t, lambda, mu)
	ss, pi := solve(t, n)
	coa, err := ss.ExpectedReward(pi, func(m Marking) float64 { return float64(m.Tokens(up)) })
	if err != nil {
		t.Fatal(err)
	}
	want := mu / (lambda + mu)
	if !mathx.AlmostEqual(coa, want, 1e-10) {
		t.Errorf("ExpectedReward = %v, want %v", coa, want)
	}
}

func TestVanishingInitialMarking(t *testing.T) {
	// The initial marking immediately fires into the tangible chain.
	n := New("vanishinit")
	boot := n.AddPlace("boot", 1)
	up := n.AddPlace("up", 0)
	down := n.AddPlace("down", 0)
	n.AddImmediateTransition("Tboot").From(boot).To(up)
	n.AddTimedTransition("Tfail", 1).From(up).To(down)
	n.AddTimedTransition("Trepair", 1).From(down).To(up)

	ss, pi := solve(t, n)
	if ss.NumTangible() != 2 {
		t.Fatalf("NumTangible = %d, want 2", ss.NumTangible())
	}
	pUp, err := ss.Probability(pi, func(m Marking) bool { return m.Tokens(up) == 1 })
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(pUp, 0.5, 1e-10) {
		t.Errorf("P(up) = %v, want 0.5", pUp)
	}
}

func TestValidateErrors(t *testing.T) {
	t.Run("noPlaces", func(t *testing.T) {
		n := New("empty")
		if err := n.Validate(); err == nil {
			t.Error("empty net should fail validation")
		}
	})
	t.Run("noArcs", func(t *testing.T) {
		n := New("noarcs")
		n.AddPlace("p", 1)
		n.AddTimedTransition("t", 1)
		if err := n.Validate(); err == nil {
			t.Error("transition without arcs should fail validation")
		}
	})
	t.Run("badRate", func(t *testing.T) {
		n := New("badrate")
		p := n.AddPlace("p", 1)
		n.AddTimedTransition("t", 0).From(p).To(p)
		if err := n.Validate(); err == nil {
			t.Error("timed transition without rate should fail validation")
		}
	})
}

func TestDuplicatePlacePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate place should panic")
		}
	}()
	n := New("dup")
	n.AddPlace("p", 0)
	n.AddPlace("p", 0)
}

func TestDuplicateTransitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate transition should panic")
		}
	}()
	n := New("dup")
	n.AddTimedTransition("t", 1)
	n.AddTimedTransition("t", 1)
}

func TestLookups(t *testing.T) {
	n, _, _ := upDownNet(t, 1, 1)
	if len(n.Places()) != 2 || len(n.Transitions()) != 2 {
		t.Error("Places/Transitions lists wrong length")
	}
}

func TestMarkingString(t *testing.T) {
	n := New("str")
	a := n.AddPlace("b_place", 1)
	b := n.AddPlace("a_place", 2)
	m := n.InitialMarking()
	_ = a
	_ = b
	if got := n.MarkingString(m); got != "{a_place:2 b_place}" {
		t.Errorf("MarkingString = %q", got)
	}
}

func TestMarkingKeyLargeCounts(t *testing.T) {
	// Token counts at and above the one-byte escape boundary must keep
	// distinct markings distinct.
	counts := []int{0, 1, 254, 255, 256, 300, 1 << 20}
	seen := make(map[string]int)
	for _, a := range counts {
		for _, b := range counts {
			m := Marking{a, b}
			k := string(m.appendKey(nil))
			if prev, dup := seen[k]; dup && prev != a*1000000+b {
				t.Errorf("markings collide: key of {%d,%d} already used", a, b)
			}
			seen[k] = a*1000000 + b
		}
	}
	if len(seen) != len(counts)*len(counts) {
		t.Errorf("distinct keys = %d, want %d", len(seen), len(counts)*len(counts))
	}
}

func TestHighTokenCountStateSpace(t *testing.T) {
	// A tier of 300 servers exercises the multi-byte marking encoding end
	// to end: 301 tangible states.
	n := New("large")
	up := n.AddPlace("up", 300)
	down := n.AddPlace("down", 0)
	n.AddTimedTransition("Td", 0).From(up).To(down).
		WithRateFunc(func(m Marking) float64 { return 0.001 * float64(m.Tokens(up)) })
	n.AddTimedTransition("Tu", 0).From(down).To(up).
		WithRateFunc(func(m Marking) float64 { return 1.0 * float64(m.Tokens(down)) })
	ss, err := n.Generate(GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ss.NumTangible() != 301 {
		t.Errorf("tangible = %d, want 301", ss.NumTangible())
	}
}

// TestRandomBirthDeathMatchesDirectCTMC cross-validates the SRN pipeline
// against a hand-built CTMC on random bounded birth-death nets.
func TestRandomBirthDeathMatchesDirectCTMC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capTokens := 1 + rng.Intn(6)
		birth := 0.2 + rng.Float64()*2
		death := 0.2 + rng.Float64()*2

		n := New("bd")
		pool := n.AddPlace("pool", 0)
		clock := n.AddPlace("clock", 1)
		n.AddTimedTransition("Tb", birth).From(clock).To(clock).To(pool).
			WithGuard(func(m Marking) bool { return m.Tokens(pool) <= capTokens })
		n.AddTimedTransition("Td", 0).From(pool).
			WithRateFunc(func(m Marking) float64 { return death * float64(m.Tokens(pool)) })

		ss, err := n.Generate(GenerateOptions{})
		if err != nil {
			return false
		}
		pi, err := ss.SteadyState(ctmc.SolveOptions{})
		if err != nil {
			return false
		}

		ref := ctmc.New(capTokens + 2)
		for i := 0; i <= capTokens; i++ {
			if err := ref.AddRate(i, i+1, birth); err != nil {
				return false
			}
		}
		for i := 1; i <= capTokens+1; i++ {
			if err := ref.AddRate(i, i-1, death*float64(i)); err != nil {
				return false
			}
		}
		refPi, err := ref.SteadyState(ctmc.SolveOptions{})
		if err != nil {
			return false
		}
		for k := 0; k <= capTokens+1; k++ {
			got, err := ss.Probability(pi, func(m Marking) bool { return m.Tokens(pool) == k })
			if err != nil || !mathx.AlmostEqual(got, refPi[k], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestIncidenceMatrix(t *testing.T) {
	n := New("inc")
	a := n.AddPlace("a", 1)
	b := n.AddPlace("b", 0)
	n.AddTimedTransition("T", 1).From(a, a).To(b, b, b)
	c := n.IncidenceMatrix()
	if c[a.index][0] != -2 || c[b.index][0] != 3 {
		t.Errorf("incidence = %v, want a:-2 b:+3", c)
	}
}
