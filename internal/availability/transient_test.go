package availability

import (
	"testing"

	"redpatch/internal/mathx"
)

// TestPatchWindowTransient traces the DNS server through its 40-minute
// patch window: availability starts at 0 (patch in progress), stays low
// through the window, and recovers to ~1 afterwards.
func TestPatchWindowTransient(t *testing.T) {
	p := paperServerParams("dns")
	// Sample at 6 min, 20 min, 40 min, 1 h 20 m and 10 h after trigger.
	times := []float64{0.1, 1.0 / 3, 2.0 / 3, 4.0 / 3, 10}
	points, err := PatchWindowTransient(p, times)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(times) {
		t.Fatalf("points = %d, want %d", len(points), len(times))
	}
	// Early in the window the service is almost surely still patching.
	if points[0].ServiceUp > 0.2 {
		t.Errorf("P(up) at 6 min = %v, expected low (mean window 40 min)", points[0].ServiceUp)
	}
	if points[0].PatchDown < 0.8 {
		t.Errorf("P(patching) at 6 min = %v, expected high", points[0].PatchDown)
	}
	// Long after the window the service has recovered.
	last := points[len(points)-1]
	if last.ServiceUp < 0.99 {
		t.Errorf("P(up) at 10 h = %v, expected ≈ 1", last.ServiceUp)
	}
	// Availability is monotonically recovering across the samples.
	for i := 1; i < len(points); i++ {
		if points[i].ServiceUp < points[i-1].ServiceUp-1e-9 {
			t.Errorf("availability decreased between %v h and %v h: %v -> %v",
				points[i-1].Hours, points[i].Hours, points[i-1].ServiceUp, points[i].ServiceUp)
		}
	}
}

func TestPatchWindowTransientValidation(t *testing.T) {
	p := paperServerParams("dns")
	if _, err := PatchWindowTransient(p, nil); err == nil {
		t.Error("empty sample times should fail")
	}
	if _, err := PatchWindowTransient(p, []float64{-1}); err == nil {
		t.Error("negative time should fail")
	}
}

func TestTransientCOA(t *testing.T) {
	nm := paperTiers(t, baseCounts)

	at0, err := TransientCOA(nm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(at0, 1, 1e-12) {
		t.Errorf("COA(0) = %v, want 1 (all up)", at0)
	}

	steady, err := ClosedFormCOA(nm)
	if err != nil {
		t.Fatal(err)
	}
	atLong, err := TransientCOA(nm, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(atLong, steady, 1e-6) {
		t.Errorf("COA(50000h) = %v, want steady %v", atLong, steady)
	}

	mid, err := TransientCOA(nm, 720)
	if err != nil {
		t.Fatal(err)
	}
	if mid <= steady || mid >= 1 {
		t.Errorf("COA(720h) = %v, want between steady %v and 1", mid, steady)
	}
}
