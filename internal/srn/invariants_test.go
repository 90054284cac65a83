package srn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redpatch/internal/mathx"
)

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

func TestPlaceInvariantsUpDown(t *testing.T) {
	// up <-> down conserves one token: a single invariant (1, 1).
	n := New("updown")
	up := n.AddPlace("up", 1)
	down := n.AddPlace("down", 0)
	n.AddTimedTransition("Tf", 1).From(up).To(down)
	n.AddTimedTransition("Tr", 1).From(down).To(up)
	inv := n.PlaceInvariants()
	if len(inv) != 1 {
		t.Fatalf("invariants = %d, want 1", len(inv))
	}
	// The invariant assigns equal weight to both places.
	if !mathx.AlmostEqual(inv[0][0], inv[0][1], 1e-12) {
		t.Errorf("invariant = %v, want equal weights", inv[0])
	}
}

func TestPlaceInvariantsSourceSink(t *testing.T) {
	// A token source has no conservation law involving the fed place.
	n := New("source")
	clock := n.AddPlace("clock", 1)
	pool := n.AddPlace("pool", 0)
	n.AddTimedTransition("Tgen", 1).From(clock).To(clock).To(pool)
	inv := n.PlaceInvariants()
	// The clock place is conserved (self-loop); the pool is not.
	if len(inv) != 1 {
		t.Fatalf("invariants = %v, want exactly the clock conservation", inv)
	}
	if inv[0][pool.index] != 0 {
		t.Errorf("pool must not appear in any invariant, got %v", inv[0])
	}
	if inv[0][clock.index] == 0 {
		t.Errorf("clock conservation missing: %v", inv[0])
	}
}

// TestInvariantsHoldOnReachableMarkings is the fundamental property: for
// any net, every reachable marking satisfies y·M = y·M0 for every
// computed invariant.
func TestInvariantsHoldOnReachableMarkings(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := New("rand")
		nPlaces := 2 + rng.Intn(4)
		places := make([]*Place, nPlaces)
		for i := range places {
			places[i] = n.AddPlace("p"+string(rune('0'+i)), rng.Intn(3))
		}
		nTrans := 1 + rng.Intn(5)
		for i := 0; i < nTrans; i++ {
			tr := n.AddTimedTransition("t"+string(rune('0'+i)), 0.5+rng.Float64())
			tr.From(places[rng.Intn(nPlaces)]).To(places[rng.Intn(nPlaces)])
		}
		ss, err := n.Generate(GenerateOptions{MaxMarkings: 5000})
		if err != nil {
			return true // unbounded or degenerate: nothing to check
		}
		return n.CheckConservation(ss) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
