package redpatch

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"redpatch/internal/engine"
)

// FuzzReportJSON: DesignReport.AppendJSON and RolloutReport.AppendJSON
// write exactly what encoding/json writes for the same fields, for any
// strings (escapes, invalid UTF-8, HTML characters) and any floats; a
// value encoding/json refuses (NaN, ±Inf) is the same error, with the
// buffer unchanged. The reports have no MarshalJSON, so json.Marshal
// encodes them by reflection: the reference the append encoders are
// held to.
func FuzzReportJSON(f *testing.F) {
	f.Add("1d2w2a1b", "1 DNS + 2 WEB + 2 APP + 1 DB", "web", "webalt", 2, 11, 52.199999999999996, 0.23442368503554004, 0.9970721291594327, 0.9978018703503317, uint8(0))
	f.Add("", "", "dns", "", 1, 0, 1e-7, 1e21, math.Copysign(0, -1), 1e-6, uint8(1))
	f.Add("<a&b>", "caf\xc3\xa9 \xff", "r\x00\x1f\x7f", "\"\\\n\t", -3, 7, 9.99e-7, -1e21, 1.5e300, 5e-324, uint8(2))
	f.Add("sep\xe2\x80\xa8\xe2\x80\xa9", "trunc\xe2\x82", "x", "y", 0, 0, math.NaN(), 0.5, 0.5, 0.5, uint8(3))
	f.Add("n", "d", "x", "y", 0, 0, 0.5, math.Inf(1), 0.5, math.Inf(-1), uint8(0))
	f.Fuzz(func(t *testing.T, name, desc, role, variant string, replicas, count int, a, b, c, d float64, shape uint8) {
		rep := DesignReport{
			Name: name, Description: desc,
			Spec:    DesignSpec{Name: variant, Tiers: []TierSpec{{Role: role, Replicas: replicas, Variant: variant}, {Role: name, Replicas: count}}},
			Servers: replicas + count,
			Before:  engine.Summary{AIM: a, ASP: b, NoEV: count, NoAP: replicas, NoEP: -count},
			After:   engine.Summary{AIM: c, ASP: d, NoEV: replicas, NoAP: count, NoEP: 1},
			COA:     b, ServiceAvailability: c,
		}
		roll := RolloutReport{
			Step: count, Fractions: []float64{a, b}, Patched: []int{replicas, count},
			Security: rep.After, COA: d, ServiceAvailability: a,
		}
		if shape&1 != 0 {
			rep.Spec.Tiers, roll.Fractions, roll.Patched = nil, nil, nil
		}
		if shape&2 != 0 {
			rep.Spec.Tiers, roll.Fractions, roll.Patched = []TierSpec{}, []float64{}, []int{}
		}
		checkAppend(t, rep)
		checkAppend(t, roll)
	})
}

// checkAppend compares v's AppendJSON with json.Marshal of v.
func checkAppend(t *testing.T, v interface {
	AppendJSON([]byte) ([]byte, error)
}) {
	t.Helper()
	want, werr := json.Marshal(v)
	prefix := []byte("prefix")
	got, err := v.AppendJSON(prefix)
	if werr != nil {
		if err == nil || err.Error() != werr.Error() {
			t.Fatalf("AppendJSON error %v, encoding/json %v", err, werr)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("AppendJSON failed but changed the buffer to %q", got)
		}
		return
	}
	if err != nil {
		t.Fatalf("AppendJSON: %v; encoding/json wrote %s", err, want)
	}
	if !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendJSON wrote\n%s\nencoding/json\n%s", got[len(prefix):], want)
	}
}

// TestReportAppendJSONAllocations: appending a warm report into a
// buffer with room makes no allocation.
func TestReportAppendJSONAllocations(t *testing.T) {
	study, err := NewCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := study.EvaluateSpecCtx(context.Background(), ClassicSpec("", 1, 2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	roll, err := study.EvaluateRollout(context.Background(), ClassicSpec("", 1, 2, 2, 1), []float64{0, 0.5, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 4096)
	for name, v := range map[string]interface {
		AppendJSON([]byte) ([]byte, error)
	}{"DesignReport": rep, "RolloutReport": roll} {
		if n := testing.AllocsPerRun(100, func() { _, _ = v.AppendJSON(buf[:0]) }); n != 0 {
			t.Errorf("%s.AppendJSON into a sized buffer: %v allocs, want 0", name, n)
		}
	}
}
