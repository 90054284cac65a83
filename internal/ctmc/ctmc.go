// Package ctmc implements continuous-time Markov chain analysis: steady-
// state solution by several methods, transient solution by uniformization,
// expected reward computation, and mean time to absorption. It plays the
// role SHARPE/SPNP's numerical core plays in the paper: the stochastic
// reward nets of internal/srn are compiled into chains solved here.
package ctmc

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"redpatch/internal/mathx"
)

// Chain is a finite-state CTMC under construction or analysis. States are
// dense integer indices [0, n). Rates are accumulated with AddRate and
// frozen into a generator on first solve.
type Chain struct {
	n       int
	builder *builder
	gen     *csr      // off-diagonal rates, rows = source states
	diag    []float64 // diagonal of the generator (negative exit rates)

	// Lazy transpose of gen (Gauss-Seidel sweeps). Guarded by a Once so
	// concurrent solves on an already-frozen chain stay safe — the
	// pre-cache code built a fresh transpose per call and callers (e.g.
	// a shared srn.StateSpace) rely on that.
	incomingOnce sync.Once
	incoming     *csr
}

// New returns a chain with n states and no transitions.
func New(n int) *Chain {
	if n <= 0 {
		panic("ctmc: chain must have at least one state")
	}
	return &Chain{n: n, builder: newBuilder(n, n)}
}

// AddRate adds a transition from state i to state j with the given positive
// rate. Multiple calls for the same pair accumulate. Self loops are
// rejected: they have no effect on a CTMC's dynamics and always indicate a
// modelling error upstream.
func (c *Chain) AddRate(i, j int, rate float64) error {
	if c.builder == nil {
		return errors.New("ctmc: chain already frozen by a solve")
	}
	if i < 0 || i >= c.n || j < 0 || j >= c.n {
		return fmt.Errorf("ctmc: transition %d->%d outside state space of size %d", i, j, c.n)
	}
	if i == j {
		return fmt.Errorf("ctmc: self-loop on state %d", i)
	}
	if rate <= 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("ctmc: invalid rate %v for transition %d->%d", rate, i, j)
	}
	c.builder.add(i, j, rate)
	return nil
}

// freeze assembles the off-diagonal rate matrix and the diagonal.
func (c *Chain) freeze() {
	if c.gen != nil {
		return
	}
	c.gen = c.builder.build()
	c.builder = nil
	c.diag = make([]float64, c.n)
	sums := c.gen.rowSums()
	for i := range c.diag {
		c.diag[i] = -sums[i]
	}
}

// Method selects the steady-state solution algorithm.
type Method int

const (
	// Auto picks Direct up to autoDirectLimit states and GaussSeidel
	// otherwise.
	Auto Method = iota + 1
	// Direct uses dense Gaussian elimination with partial pivoting on the
	// normalized balance equations. Exact up to floating point; O(n^3).
	Direct
	// GaussSeidel iterates the balance equations in place. Fast on sparse
	// chains; requires an irreducible chain to converge to the unique
	// stationary distribution.
	GaussSeidel
	// Power iterates the uniformized DTMC. Slowest but most robust.
	Power
)

// SolveOptions configures the steady-state solvers. The zero value selects
// Auto with defaults.
type SolveOptions struct {
	Method    Method
	Tolerance float64 // convergence tolerance; default 1e-12
	MaxIter   int     // iteration cap for iterative methods; default 200000
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.Method == 0 {
		o.Method = Auto
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-12
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200000
	}
	return o
}

// ErrNotConverged reports that an iterative solver hit its iteration cap
// before reaching the requested tolerance.
var ErrNotConverged = errors.New("ctmc: iterative solver did not converge")

// autoDirectLimit is the state count up to which Auto selects the exact
// Direct solver. The flat-backed elimination (single allocation, row-
// pointer pivoting) made Direct cheap enough that it beats Gauss-Seidel
// convergence on chains a few hundred states larger than the previous
// [][]float64 implementation could afford.
const autoDirectLimit = 512

// SteadyState returns the stationary distribution pi with pi*Q = 0 and
// sum(pi) = 1, using the configured method.
func (c *Chain) SteadyState(opts SolveOptions) ([]float64, error) {
	c.freeze()
	opts = opts.withDefaults()
	method := opts.Method
	if method == Auto {
		if c.n <= autoDirectLimit {
			method = Direct
		} else {
			method = GaussSeidel
		}
	}
	switch method {
	case Direct:
		return c.steadyDirect()
	case GaussSeidel:
		return c.steadyGaussSeidel(opts)
	case Power:
		return c.steadyPower(opts)
	default:
		return nil, fmt.Errorf("ctmc: unknown method %d", method)
	}
}

// steadyDirect solves Q^T pi = 0 with the last equation replaced by the
// normalization sum(pi) = 1, by Gaussian elimination with partial
// pivoting on a flat-backed augmented matrix: one backing allocation
// instead of one slice per row, and pivoting swaps row indices instead
// of rows.
func (c *Chain) steadyDirect() ([]float64, error) {
	n := c.n
	// Assemble A = Q^T with the final row overwritten by ones, b = e_n.
	a := newDense(n, n+1)
	for i := 0; i < n; i++ {
		c.gen.row(i, func(j int, v float64) { a.add(j, i, v) })
		a.add(i, i, c.diag[i])
	}
	last := a.row(n - 1)
	for j := 0; j <= n; j++ {
		last[j] = 1
	}

	pi := make([]float64, n)
	if err := eliminate(a, make([]int, n), pi); err != nil {
		return nil, fmt.Errorf("ctmc: singular balance system (%v) — chain reducible?", err)
	}
	clampAndNormalize(pi)
	return pi, nil
}

// eliminate solves the m x (m+1) augmented linear system held flat in a,
// destroying a's contents. Partial pivoting runs over the row-index
// permutation perm (len m): a pivot exchange swaps two ints, never two
// rows of the backing. The solution lands in x (len m).
func eliminate(a *dense, perm []int, x []float64) error {
	m := len(x)
	for i := 0; i < m; i++ {
		perm[i] = i
	}
	for col := 0; col < m; col++ {
		pivot := col
		best := math.Abs(a.row(perm[col])[col])
		for r := col + 1; r < m; r++ {
			if v := math.Abs(a.row(perm[r])[col]); v > best {
				pivot, best = r, v
			}
		}
		if best < 1e-300 {
			return fmt.Errorf("singular system at column %d", col)
		}
		perm[col], perm[pivot] = perm[pivot], perm[col]
		prow := a.row(perm[col])
		inv := 1 / prow[col]
		for r := col + 1; r < m; r++ {
			row := a.row(perm[r])
			f := row[col] * inv
			if f == 0 {
				continue
			}
			row[col] = 0
			for k := col + 1; k <= m; k++ {
				row[k] -= f * prow[k]
			}
		}
	}
	for r := m - 1; r >= 0; r-- {
		row := a.row(perm[r])
		sum := row[m]
		for k := r + 1; k < m; k++ {
			sum -= row[k] * x[k]
		}
		x[r] = sum / row[r]
	}
	return nil
}

// incomingMatrix returns (building lazily, once) the transpose of the
// off-diagonal rate matrix: row j holds the incoming rates of state j.
func (c *Chain) incomingMatrix() *csr {
	c.incomingOnce.Do(func() { c.incoming = c.gen.transpose() })
	return c.incoming
}

// steadyGaussSeidel iterates pi_j = (sum_{i != j} pi_i q_ij) / (-q_jj).
func (c *Chain) steadyGaussSeidel(opts SolveOptions) ([]float64, error) {
	n := c.n
	incoming := c.incomingMatrix() // row j holds incoming rates of state j

	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for iter := 0; iter < opts.MaxIter; iter++ {
		maxDelta := 0.0
		for j := 0; j < n; j++ {
			if c.diag[j] == 0 {
				// Absorbing state: in an irreducible chain this cannot
				// happen; leave the estimate untouched and let the
				// normalization sort it out (tests cover rejection).
				continue
			}
			var sum float64
			incoming.row(j, func(i int, q float64) { sum += pi[i] * q })
			next := sum / -c.diag[j]
			delta := math.Abs(next - pi[j])
			if ref := math.Abs(next); ref > 1 {
				delta /= ref
			}
			if delta > maxDelta {
				maxDelta = delta
			}
			pi[j] = next
		}
		normalize(pi)
		if maxDelta < opts.Tolerance {
			clampAndNormalize(pi)
			return pi, nil
		}
	}
	return nil, fmt.Errorf("%w: gauss-seidel after %d iterations", ErrNotConverged, opts.MaxIter)
}

// steadyPower iterates the uniformized DTMC P = I + Q/Lambda.
func (c *Chain) steadyPower(opts SolveOptions) ([]float64, error) {
	n := c.n
	lambda := c.uniformizationRate()
	pi := make([]float64, n)
	next := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for iter := 0; iter < opts.MaxIter; iter++ {
		// next = pi * P = pi + (pi * Q)/lambda
		for j := range next {
			next[j] = pi[j] * (1 + c.diag[j]/lambda)
		}
		for i := 0; i < n; i++ {
			w := pi[i] / lambda
			if w == 0 {
				continue
			}
			c.gen.row(i, func(j int, q float64) { next[j] += w * q })
		}
		normalize(next)
		maxDelta := 0.0
		for j := range next {
			if d := math.Abs(next[j] - pi[j]); d > maxDelta {
				maxDelta = d
			}
		}
		pi, next = next, pi
		if maxDelta < opts.Tolerance {
			clampAndNormalize(pi)
			return pi, nil
		}
	}
	return nil, fmt.Errorf("%w: power iteration after %d iterations", ErrNotConverged, opts.MaxIter)
}

// uniformizationRate returns a rate strictly greater than every exit rate.
func (c *Chain) uniformizationRate() float64 {
	maxExit := 0.0
	for _, d := range c.diag {
		if -d > maxExit {
			maxExit = -d
		}
	}
	if maxExit == 0 {
		return 1
	}
	return maxExit * 1.02
}

func normalize(v []float64) {
	sum := mathx.KahanSum(v)
	if sum == 0 {
		return
	}
	for i := range v {
		v[i] /= sum
	}
}

func clampAndNormalize(v []float64) {
	for i := range v {
		if v[i] < 0 && v[i] > -1e-9 {
			v[i] = 0
		}
	}
	normalize(v)
}
