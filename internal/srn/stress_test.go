package srn

import (
	"testing"

	"redpatch/internal/ctmc"
	"redpatch/internal/mathx"
)

// TestLargeStateSpace generates a four-tier network with nine servers per
// tier — a 10000-state CTMC — and checks that reachability, vanishing
// elimination and the iterative steady-state solver stay exact against
// the closed-form product of binomials.
func TestLargeStateSpace(t *testing.T) {
	const (
		tiers   = 4
		n       = 9
		lambda  = 0.002
		mu      = 1.5
		wantDim = (n + 1) * (n + 1) * (n + 1) * (n + 1)
	)
	net := New("big")
	var ups []*Place
	for i := 0; i < tiers; i++ {
		up := net.AddPlace("up"+string(rune('0'+i)), n)
		down := net.AddPlace("down"+string(rune('0'+i)), 0)
		net.AddTimedTransition("Td"+string(rune('0'+i)), 0).From(up).To(down).
			WithRateFunc(func(m Marking) float64 { return lambda * float64(m.Tokens(up)) })
		net.AddTimedTransition("Tu"+string(rune('0'+i)), 0).From(down).To(up).
			WithRateFunc(func(m Marking) float64 { return mu * float64(m.Tokens(down)) })
		ups = append(ups, up)
	}
	ss, err := net.Generate(GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ss.NumTangible() != wantDim {
		t.Fatalf("tangible = %d, want %d", ss.NumTangible(), wantDim)
	}
	pi, err := ss.SteadyState(ctmc.SolveOptions{Method: ctmc.GaussSeidel, Tolerance: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	// P(all up in tier 0) = a^n with a = mu/(lambda+mu).
	a := mu / (lambda + mu)
	want := 1.0
	for k := 0; k < n; k++ {
		want *= a
	}
	got, err := ss.Probability(pi, func(m Marking) bool { return m.Tokens(ups[0]) == n })
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(got, want, 1e-6) {
		t.Errorf("P(tier 0 all up) = %v, want %v", got, want)
	}
	// Expected up-count across tiers: 4 * n * a.
	var mean float64
	for _, up := range ups {
		up := up
		m, err := ss.ExpectedReward(pi, func(m Marking) float64 { return float64(m.Tokens(up)) })
		if err != nil {
			t.Fatal(err)
		}
		mean += m
	}
	if !mathx.AlmostEqual(mean, tiers*n*a, 1e-6) {
		t.Errorf("mean up = %v, want %v", mean, tiers*n*a)
	}
}
