package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKahanSum(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "empty", give: nil, want: 0},
		{name: "single", give: []float64{2.5}, want: 2.5},
		{name: "integers", give: []float64{1, 2, 3, 4}, want: 10},
		{name: "cancellation", give: []float64{1e16, 1, -1e16}, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := KahanSum(tt.give); got != tt.want {
				t.Errorf("KahanSum(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestKahanSumMatchesNaiveOnSmallInputs(t *testing.T) {
	f := func(xs []float64) bool {
		var cleaned []float64
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				continue
			}
			cleaned = append(cleaned, x)
		}
		var naive float64
		for _, x := range cleaned {
			naive += x
		}
		return AlmostEqual(KahanSum(cleaned), naive, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRound1(t *testing.T) {
	tests := []struct {
		give float64
		want float64
	}{
		{give: 7.15, want: 7.2},
		{give: 9.9945, want: 10.0},
		{give: 4.2965, want: 4.3},
		{give: 2.86, want: 2.9},
		{give: 6.443, want: 6.4},
		{give: -1.25, want: -1.3},
		{give: 0, want: 0},
	}
	for _, tt := range tests {
		if got := Round1(tt.give); got != tt.want {
			t.Errorf("Round1(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestRound2(t *testing.T) {
	tests := []struct {
		give float64
		want float64
	}{
		{give: 0.39487, want: 0.39},
		{give: 0.85888, want: 0.86},
		{give: 0.99968, want: 1.0},
		{give: 0.005, want: 0.01},
	}
	for _, tt := range tests {
		if got := Round2(tt.give); got != tt.want {
			t.Errorf("Round2(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestAlmostEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b float64
		tol  float64
		want bool
	}{
		{name: "identical", a: 1, b: 1, tol: 0, want: true},
		{name: "withinAbs", a: 1, b: 1.0000001, tol: 1e-6, want: true},
		{name: "outside", a: 1, b: 1.1, tol: 1e-6, want: false},
		{name: "relativeLarge", a: 1e12, b: 1e12 + 1e3, tol: 1e-6, want: true},
		{name: "zeroVsTiny", a: 0, b: 1e-12, tol: 1e-9, want: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := AlmostEqual(tt.a, tt.b, tt.tol); got != tt.want {
				t.Errorf("AlmostEqual(%v, %v, %v) = %v, want %v", tt.a, tt.b, tt.tol, got, tt.want)
			}
		})
	}
}

func TestClamp01(t *testing.T) {
	tests := []struct {
		give float64
		want float64
	}{
		{give: -0.5, want: 0},
		{give: 0, want: 0},
		{give: 0.5, want: 0.5},
		{give: 1, want: 1},
		{give: 1.0000000000000002, want: 1},
	}
	for _, tt := range tests {
		if got := Clamp01(tt.give); got != tt.want {
			t.Errorf("Clamp01(%v) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestClamp01AlwaysInRange(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		c := Clamp01(x)
		return c >= 0 && c <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomial(t *testing.T) {
	tests := []struct {
		n, k int
		want float64
	}{
		{n: 5, k: 0, want: 1},
		{n: 5, k: 5, want: 1},
		{n: 5, k: 2, want: 10},
		{n: 10, k: 3, want: 120},
		{n: 5, k: 6, want: 0},
		{n: 5, k: -1, want: 0},
	}
	for _, tt := range tests {
		if got := Binomial(tt.n, tt.k); got != tt.want {
			t.Errorf("Binomial(%d, %d) = %v, want %v", tt.n, tt.k, got, tt.want)
		}
	}
}

func TestBinomialSymmetry(t *testing.T) {
	f := func(n, k uint8) bool {
		nn := int(n % 30)
		kk := int(k % 30)
		return Binomial(nn, kk) == Binomial(nn, nn-kk) || kk > nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
