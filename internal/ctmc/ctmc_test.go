package ctmc

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"redpatch/internal/mathx"
)

// twoState builds the canonical up/down availability chain with failure
// rate lambda and repair rate mu. Its stationary distribution is known in
// closed form: pi_up = mu/(lambda+mu).
func twoState(t *testing.T, lambda, mu float64) *Chain {
	t.Helper()
	c := New(2)
	if err := c.AddRate(0, 1, lambda); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRate(1, 0, mu); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAddRateValidation(t *testing.T) {
	c := New(2)
	tests := []struct {
		name    string
		i, j    int
		rate    float64
		wantErr bool
	}{
		{name: "ok", i: 0, j: 1, rate: 1, wantErr: false},
		{name: "selfLoop", i: 0, j: 0, rate: 1, wantErr: true},
		{name: "outOfRange", i: 0, j: 5, rate: 1, wantErr: true},
		{name: "negativeRate", i: 1, j: 0, rate: -2, wantErr: true},
		{name: "zeroRate", i: 1, j: 0, rate: 0, wantErr: true},
		{name: "nanRate", i: 1, j: 0, rate: math.NaN(), wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := c.AddRate(tt.i, tt.j, tt.rate)
			if (err != nil) != tt.wantErr {
				t.Errorf("AddRate(%d,%d,%v) err = %v, wantErr %v", tt.i, tt.j, tt.rate, err, tt.wantErr)
			}
		})
	}
}

func TestNewPanicsOnEmptyChain(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0)
}

func TestAddRateAfterFreeze(t *testing.T) {
	c := twoState(t, 1, 2)
	if _, err := c.SteadyState(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRate(0, 1, 1); err == nil {
		t.Error("AddRate after solve should fail")
	}
}

func TestTwoStateSteadyStateAllMethods(t *testing.T) {
	const lambda, mu = 0.25, 2.0
	wantUp := mu / (lambda + mu)
	for _, method := range []Method{Direct, GaussSeidel, Power, Auto} {
		c := twoState(t, lambda, mu)
		pi, err := c.SteadyState(SolveOptions{Method: method})
		if err != nil {
			t.Fatalf("method %d: %v", method, err)
		}
		if !mathx.AlmostEqual(pi[0], wantUp, 1e-9) {
			t.Errorf("method %d: pi_up = %v, want %v", method, pi[0], wantUp)
		}
		if !mathx.AlmostEqual(pi[0]+pi[1], 1, 1e-12) {
			t.Errorf("method %d: distribution does not sum to 1", method)
		}
	}
}

// birthDeath builds an M/M/1-like chain truncated at n states with birth
// rate lambda and death rate mu; stationary pi_i proportional to rho^i.
func birthDeath(t *testing.T, n int, lambda, mu float64) *Chain {
	t.Helper()
	c := New(n)
	for i := 0; i < n-1; i++ {
		if err := c.AddRate(i, i+1, lambda); err != nil {
			t.Fatal(err)
		}
		if err := c.AddRate(i+1, i, mu); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestBirthDeathClosedForm(t *testing.T) {
	const n, lambda, mu = 8, 0.7, 1.3
	rho := lambda / mu
	var norm float64
	for i := 0; i < n; i++ {
		norm += math.Pow(rho, float64(i))
	}
	for _, method := range []Method{Direct, GaussSeidel, Power} {
		c := birthDeath(t, n, lambda, mu)
		pi, err := c.SteadyState(SolveOptions{Method: method})
		if err != nil {
			t.Fatalf("method %d: %v", method, err)
		}
		for i := 0; i < n; i++ {
			want := math.Pow(rho, float64(i)) / norm
			if !mathx.AlmostEqual(pi[i], want, 1e-8) {
				t.Errorf("method %d: pi[%d] = %v, want %v", method, i, pi[i], want)
			}
		}
	}
}

func TestMethodsAgreeOnRandomChains(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		direct := New(n)
		gs := New(n)
		pow := New(n)
		// Ring plus random chords guarantees irreducibility.
		for i := 0; i < n; i++ {
			r := 0.1 + rng.Float64()*5
			for _, c := range []*Chain{direct, gs, pow} {
				if err := c.AddRate(i, (i+1)%n, r); err != nil {
					return false
				}
			}
			if rng.Intn(2) == 0 {
				j := rng.Intn(n)
				if j != i {
					r2 := 0.1 + rng.Float64()*5
					for _, c := range []*Chain{direct, gs, pow} {
						if err := c.AddRate(i, j, r2); err != nil {
							return false
						}
					}
				}
			}
		}
		pd, err := direct.SteadyState(SolveOptions{Method: Direct})
		if err != nil {
			return false
		}
		pg, err := gs.SteadyState(SolveOptions{Method: GaussSeidel})
		if err != nil {
			return false
		}
		pp, err := pow.SteadyState(SolveOptions{Method: Power, Tolerance: 1e-13})
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if !mathx.AlmostEqual(pd[i], pg[i], 1e-6) || !mathx.AlmostEqual(pd[i], pp[i], 1e-5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSteadyStateBalanced(t *testing.T) {
	// Verify pi*Q = 0 numerically on a random chain.
	rng := rand.New(rand.NewSource(7))
	n := 12
	c := New(n)
	for i := 0; i < n; i++ {
		if err := c.AddRate(i, (i+1)%n, 0.5+rng.Float64()); err != nil {
			t.Fatal(err)
		}
		if err := c.AddRate(i, (i+3)%n, 0.5+rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	pi, err := c.SteadyState(SolveOptions{Method: Direct})
	if err != nil {
		t.Fatal(err)
	}
	res := make([]float64, n)
	for i := 0; i < n; i++ {
		res[i] += pi[i] * c.diag[i]
		c.gen.row(i, func(j int, q float64) { res[j] += pi[i] * q })
	}
	for i, r := range res {
		if math.Abs(r) > 1e-10 {
			t.Errorf("residual (pi*Q)[%d] = %v, want ~0", i, r)
		}
	}
}

func TestReducibleChainDirectFails(t *testing.T) {
	// Two disconnected components: stationary distribution is not unique.
	c := New(4)
	if err := c.AddRate(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRate(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRate(2, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRate(3, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SteadyState(SolveOptions{Method: Direct}); err == nil {
		t.Error("Direct solve of reducible chain should fail")
	}
}

func TestGeneratorRowsSumToZero(t *testing.T) {
	c := birthDeath(t, 5, 0.9, 1.4)
	c.freeze()
	for i, s := range c.gen.rowSums() {
		if s := s + c.diag[i]; math.Abs(s) > 1e-12 {
			t.Errorf("generator row sum = %v, want 0", s)
		}
	}
}

func TestExitRate(t *testing.T) {
	c := New(3)
	if err := c.AddRate(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRate(0, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRate(1, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddRate(2, 0, 1); err != nil {
		t.Fatal(err)
	}
	c.freeze()
	if got := -c.diag[0]; got != 5 {
		t.Errorf("exit rate of state 0 = %v, want 5", got)
	}
}

// TestDirectSolveAllocations pins the flat-backed direct solve to O(1)
// allocations (the system, the pivot permutation, the result vector and
// closure plumbing), not one per matrix row.
func TestDirectSolveAllocations(t *testing.T) {
	const n = 200
	build := func() *Chain {
		c := New(n)
		for i := 0; i < n-1; i++ {
			if err := c.AddRate(i, i+1, 1.2); err != nil {
				t.Fatal(err)
			}
			if err := c.AddRate(i+1, i, 0.8); err != nil {
				t.Fatal(err)
			}
		}
		c.freeze()
		return c
	}
	chains := make([]*Chain, 10)
	for i := range chains {
		chains[i] = build()
	}
	idx := 0
	avg := testing.AllocsPerRun(len(chains), func() {
		if _, err := chains[idx].SteadyState(SolveOptions{Method: Direct}); err != nil {
			t.Fatal(err)
		}
		idx = (idx + 1) % len(chains)
	})
	// The n x (n+1) system alone would be n+1 allocations in the old
	// row-slice representation; the flat path needs only the system,
	// the permutation, the returned distribution and a couple of
	// closure headers.
	if avg > 8 {
		t.Errorf("direct solve averaged %.1f allocs, want <= 8", avg)
	}
}

func TestNotConvergedError(t *testing.T) {
	c := twoState(t, 1, 3)
	_, err := c.SteadyState(SolveOptions{Method: Power, Tolerance: 1e-16, MaxIter: 1})
	if !errors.Is(err, ErrNotConverged) {
		t.Errorf("expected ErrNotConverged, got %v", err)
	}
}
