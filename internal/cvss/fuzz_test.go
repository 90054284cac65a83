package cvss

import "testing"

// FuzzParse exercises the v2 vector parser: it must never panic, and any
// vector it accepts must render back to a string that re-parses to the
// identical vector.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"AV:N/AC:L/Au:N/C:C/I:C/A:C",
		"AV:L/AC:H/Au:M/C:N/I:N/A:N",
		"(AV:N/AC:M/Au:S/C:P/I:P/A:P)",
		"",
		"AV:N/AC:L/Au:N/C:C/I:C",
		"AV:N/AV:N/Au:N/C:C/I:C/A:C",
		"AV:/AC:L/Au:N/C:C/I:C/A:C",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := Parse(s)
		if err != nil {
			return
		}
		back, err := Parse(v.String())
		if err != nil {
			t.Fatalf("accepted vector %q does not round-trip: %v", s, err)
		}
		if back != v {
			t.Fatalf("round trip changed %q: %+v -> %+v", s, v, back)
		}
		if base := v.BaseScore(); base < 0 || base > 10 {
			t.Fatalf("vector %q has out-of-range base score %v", s, base)
		}
	})
}
