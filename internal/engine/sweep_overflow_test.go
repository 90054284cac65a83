package engine

import (
	"math"
	"testing"
)

// TestSweepSizeSaturatesInsteadOfWrapping pins the guard redpatchd's
// request cap relies on: a product of huge attacker-chosen ranges must
// saturate, never wrap past the cap to a small or negative count.
func TestSweepSizeSaturatesInsteadOfWrapping(t *testing.T) {
	spec := classicSpace(1, 65536) // 65536^4 == 2^64 wraps to 0 unchecked
	if err := spec.Validate(); err != nil {
		t.Fatalf("huge-but-wellformed spec rejected: %v", err)
	}
	if got := spec.SweepSize(); got != math.MaxInt {
		t.Fatalf("SweepSize() = %d, want saturation at MaxInt", got)
	}
	half := SweepSpec{Tiers: []TierSweep{{Role: "dns", Min: 1, Max: 65536}, {Role: "web", Min: 1, Max: 65536}}}
	if got := half.SweepSize(); got != 65536*65536 {
		t.Fatalf("unsaturated SweepSize() = %d, want %d", got, 65536*65536)
	}
}
