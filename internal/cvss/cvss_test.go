package cvss

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redpatch/internal/mathx"
)

func TestParseAndString(t *testing.T) {
	tests := []string{
		"AV:N/AC:L/Au:N/C:C/I:C/A:C",
		"AV:L/AC:L/Au:N/C:C/I:C/A:C",
		"AV:N/AC:M/Au:N/C:P/I:N/A:N",
		"AV:A/AC:H/Au:S/C:P/I:P/A:P",
		"AV:L/AC:M/Au:M/C:N/I:N/A:N",
	}
	for _, s := range tests {
		v, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if got := v.String(); got != s {
			t.Errorf("roundtrip %q -> %q", s, got)
		}
	}
}

func TestParseParenthesized(t *testing.T) {
	v, err := Parse("(AV:N/AC:L/Au:N/C:C/I:C/A:C)")
	if err != nil {
		t.Fatal(err)
	}
	if v.AV != AccessNetwork {
		t.Error("parenthesized vector parsed incorrectly")
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{name: "empty", give: ""},
		{name: "tooFew", give: "AV:N/AC:L/Au:N"},
		{name: "badMetricName", give: "XX:N/AC:L/Au:N/C:C/I:C/A:C"},
		{name: "badValue", give: "AV:Q/AC:L/Au:N/C:C/I:C/A:C"},
		{name: "duplicate", give: "AV:N/AV:N/Au:N/C:C/I:C/A:C"},
		{name: "malformed", give: "AVN/AC:L/Au:N/C:C/I:C/A:C"},
		{name: "missingMetric", give: "AV:N/AC:L/Au:N/C:C/I:C/C:C"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Parse(tt.give); err == nil {
				t.Errorf("Parse(%q) should fail", tt.give)
			}
		})
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse of invalid vector should panic")
		}
	}()
	MustParse("garbage")
}

// TestKnownScores pins the scoring functions to published NVD v2 values.
// These vectors are the ones the paper's Table I relies on.
func TestKnownScores(t *testing.T) {
	tests := []struct {
		name       string
		vector     string
		wantImpact float64 // rounded to 1 decimal
		wantASP    float64 // exploitability/10 rounded to 2 decimals
		wantBase   float64
	}{
		{
			name:       "fullRemote", // e.g. CVE-2016-6662 (MySQL)
			vector:     "AV:N/AC:L/Au:N/C:C/I:C/A:C",
			wantImpact: 10.0,
			wantASP:    1.0,
			wantBase:   10.0,
		},
		{
			name:       "localPrivEsc", // CVE-2016-4997 (Linux kernel)
			vector:     "AV:L/AC:L/Au:N/C:C/I:C/A:C",
			wantImpact: 10.0,
			wantASP:    0.39,
			wantBase:   7.2,
		},
		{
			name:       "sslDowngrade", // CVE-2015-3152 (MySQL BACKRONYM)
			vector:     "AV:N/AC:M/Au:N/C:P/I:N/A:N",
			wantImpact: 2.9,
			wantASP:    0.86,
			wantBase:   4.3,
		},
		{
			name:       "partialTriple", // CVE-2016-0638 (WebLogic)
			vector:     "AV:N/AC:L/Au:N/C:P/I:P/A:P",
			wantImpact: 6.4,
			wantASP:    1.0,
			wantBase:   7.5,
		},
		{
			name:       "confidentialityOnly", // CVE-2016-4979 (Apache HTTP)
			vector:     "AV:N/AC:L/Au:N/C:P/I:N/A:N",
			wantImpact: 2.9,
			wantASP:    1.0,
			wantBase:   5.0,
		},
		{
			name:       "mediumComplexityFull", // CVE-2016-3227 as NVD scores it
			vector:     "AV:N/AC:M/Au:N/C:C/I:C/A:C",
			wantImpact: 10.0,
			wantASP:    0.86,
			wantBase:   9.3,
		},
		{
			name:       "noImpact",
			vector:     "AV:N/AC:L/Au:N/C:N/I:N/A:N",
			wantImpact: 0.0,
			wantASP:    1.0,
			wantBase:   0.0,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := MustParse(tt.vector)
			if got := v.ImpactScoreRounded(); got != tt.wantImpact {
				t.Errorf("impact = %v, want %v", got, tt.wantImpact)
			}
			if got := v.AttackSuccessProbability(); got != tt.wantASP {
				t.Errorf("ASP = %v, want %v", got, tt.wantASP)
			}
			if got := v.BaseScore(); got != tt.wantBase {
				t.Errorf("base = %v, want %v", got, tt.wantBase)
			}
		})
	}
}

func randomVector(rng *rand.Rand) Vector {
	return Vector{
		AV: AccessVector(1 + rng.Intn(3)),
		AC: AccessComplexity(1 + rng.Intn(3)),
		Au: Authentication(1 + rng.Intn(3)),
		C:  Impact(1 + rng.Intn(3)),
		I:  Impact(1 + rng.Intn(3)),
		A:  Impact(1 + rng.Intn(3)),
	}
}

// TestScoreRanges is a property test over the full metric space: all scores
// stay within specification bounds and parsing round-trips.
func TestScoreRanges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randomVector(rng)
		if v.Validate() != nil {
			return false
		}
		base := v.BaseScore()
		if base < 0 || base > 10 {
			return false
		}
		if imp := v.ImpactScore(); imp < 0 || imp > 10.01 {
			return false
		}
		if exp := v.ExploitabilityScore(); exp < 0 || exp > 10.01 {
			return false
		}
		asp := v.AttackSuccessProbability()
		if asp < 0 || asp > 1 {
			return false
		}
		parsed, err := Parse(v.String())
		return err == nil && parsed == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMonotonicity: increasing any impact metric never lowers the base
// score.
func TestMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randomVector(rng)
		base := v.BaseScore()
		if v.C < ImpactComplete {
			w := v
			w.C++
			if w.BaseScore() < base {
				return false
			}
		}
		if v.A < ImpactComplete {
			w := v
			w.A++
			if w.BaseScore() < base {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExploitabilityExactWeights(t *testing.T) {
	// The paper's three ASP values come from these exploitability scores.
	tests := []struct {
		vector string
		want   float64
	}{
		{vector: "AV:N/AC:L/Au:N/C:C/I:C/A:C", want: 9.9968},
		{vector: "AV:L/AC:L/Au:N/C:C/I:C/A:C", want: 3.9487},
		{vector: "AV:N/AC:M/Au:N/C:C/I:C/A:C", want: 8.5888},
	}
	for _, tt := range tests {
		v := MustParse(tt.vector)
		if got := v.ExploitabilityScore(); !mathx.AlmostEqual(got, tt.want, 1e-3) {
			t.Errorf("exploitability(%s) = %v, want %v", tt.vector, got, tt.want)
		}
	}
}

func TestValidateZeroVector(t *testing.T) {
	var v Vector
	if err := v.Validate(); err == nil {
		t.Error("zero vector should fail validation")
	}
}
