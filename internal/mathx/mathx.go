// Package mathx provides small numeric helpers shared by the analytic
// engines in this repository: numerically stable summation, the rounding
// rules mandated by the CVSS v2 specification, and tolerant floating-point
// comparison used throughout the model evaluators and their tests.
package mathx

import "math"

// KahanSum returns the sum of xs using Neumaier's improved Kahan
// compensated summation, which bounds the accumulated rounding error
// independently of len(xs) and, unlike plain Kahan summation, survives
// catastrophic cancellation such as [1e16, 1, -1e16]. The steady-state
// solvers normalise probability vectors with it so that long chains of tiny
// probabilities do not drift.
func KahanSum(xs []float64) float64 {
	var sum, comp float64
	for _, x := range xs {
		t := sum + x
		if math.Abs(sum) >= math.Abs(x) {
			comp += (sum - t) + x
		} else {
			comp += (x - t) + sum
		}
		sum = t
	}
	return sum + comp
}

// Round1 rounds x to one decimal digit, half away from zero, matching the
// round_to_1_decimal operation of the CVSS v2 scoring specification.
func Round1(x float64) float64 {
	return math.Round(x*10) / 10
}

// Round2 rounds x to two decimal digits, half away from zero. The paper
// reports attack success probabilities at two decimals.
func Round2(x float64) float64 {
	return math.Round(x*100) / 100
}

// AlmostEqual reports whether a and b differ by at most tol in absolute
// terms or, for large magnitudes, by at most tol in relative terms.
func AlmostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	largest := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*largest
}

// Clamp01 restricts x to the closed interval [0, 1]. Probability
// computations use it to absorb harmless rounding excursions such as
// 1.0000000000000002.
func Clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}

// Binomial returns the binomial coefficient C(n, k) as a float64, or 0 when
// k is outside [0, n].
func Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}
