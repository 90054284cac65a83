package engine

import (
	"math"
	"testing"
)

// TestSweepSizeSaturatesInsteadOfWrapping pins the guard redpatchd's
// request cap relies on: a product of huge attacker-chosen ranges must
// saturate, never wrap past the cap to a small or negative count.
func TestSweepSizeSaturatesInsteadOfWrapping(t *testing.T) {
	r := Range{Min: 1, Max: 65536} // 65536^4 == 2^64 wraps to 0 unchecked
	spec := classicSpace(r)
	if err := spec.Validate(); err != nil {
		t.Fatalf("huge-but-wellformed spec rejected: %v", err)
	}
	if got := spec.Size(); got != math.MaxInt {
		t.Fatalf("Size() = %d, want saturation at MaxInt", got)
	}
	half := SweepSpec{Tiers: []TierSweep{{Role: "dns", Replicas: r}, {Role: "web", Replicas: r}}}
	if got := half.Size(); got != 65536*65536 {
		t.Fatalf("unsaturated Size() = %d, want %d", got, 65536*65536)
	}
}
