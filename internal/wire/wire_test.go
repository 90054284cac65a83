package wire

import (
	"encoding/json"
	"math"
	"testing"
)

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "dns", "1 DNS + 2 WEB", `quote " and \ backslash`, "<a href='x'>&amp;</a>",
		"\x00\x01\x08\x09\x0a\x0c\x0d\x1f\x7f", "caf\xc3\xa9", "\xff\xfe bad", "trunc \xe2\x82",
		"sep " + string(rune(0x2028)) + " and " + string(rune(0x2029)), "emoji \xf0\x9f\x98\x80",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Errorf("AppendString(%q) = %s, want x%s", s, got, want)
		}
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99999e-7, 1e-7, -1e-7, 1.5e-10, 1e20, 1e21, -1e21,
		1.2345e300, math.SmallestNonzeroFloat64, math.MaxFloat64, 0.23442368503554004, 52.199999999999996,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

func TestCheckFiniteMatchesEncodingJSON(t *testing.T) {
	if err := CheckFinite(0, 1, -2.5); err != nil {
		t.Fatalf("finite values: %v", err)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		got := CheckFinite(1, f, math.NaN())
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("CheckFinite(%v) = %v, want %v", f, got, want)
		}
	}
}

func TestAppendSlicesMatchEncodingJSON(t *testing.T) {
	for _, fs := range [][]float64{nil, {}, {0, 0.5, 1e-9}} {
		want, _ := json.Marshal(fs)
		got, err := AppendFloats(nil, fs)
		if err != nil || string(got) != string(want) {
			t.Errorf("AppendFloats(%v) = %s, %v, want %s", fs, got, err, want)
		}
	}
	if _, err := AppendFloats(nil, []float64{1, math.NaN()}); err == nil {
		t.Error("AppendFloats accepted NaN")
	}
	for _, ns := range [][]int{nil, {}, {0, -3, 12}} {
		want, _ := json.Marshal(ns)
		if got := AppendInts(nil, ns); string(got) != string(want) {
			t.Errorf("AppendInts(%v) = %s, want %s", ns, got, want)
		}
	}
}
