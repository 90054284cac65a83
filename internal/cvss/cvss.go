// Package cvss implements Common Vulnerability Scoring System version 2
// base-metric parsing and scoring as specified by FIRST (the v2 complete
// guide). The paper derives its security-model inputs from CVSS v2: the
// impact sub-score is used as attack impact, the exploitability sub-score
// divided by ten as attack success probability, and the base score defines
// which vulnerabilities the patch policy treats as critical.
package cvss

import (
	"fmt"
	"strings"

	"redpatch/internal/mathx"
)

// AccessVector is the AV base metric.
type AccessVector int

// Access vector values.
const (
	AccessLocal AccessVector = iota + 1
	AccessAdjacent
	AccessNetwork
)

// AccessComplexity is the AC base metric.
type AccessComplexity int

// Access complexity values.
const (
	ComplexityHigh AccessComplexity = iota + 1
	ComplexityMedium
	ComplexityLow
)

// Authentication is the Au base metric.
type Authentication int

// Authentication values.
const (
	AuthMultiple Authentication = iota + 1
	AuthSingle
	AuthNone
)

// Impact is the value of each of the C, I and A base metrics.
type Impact int

// Impact values shared by the confidentiality, integrity and availability
// metrics.
const (
	ImpactNone Impact = iota + 1
	ImpactPartial
	ImpactComplete
)

// Vector is a parsed CVSS v2 base vector.
type Vector struct {
	AV AccessVector
	AC AccessComplexity
	Au Authentication
	C  Impact
	I  Impact
	A  Impact
}

// numeric weights from the CVSS v2 specification.
func (v Vector) avWeight() float64 {
	switch v.AV {
	case AccessLocal:
		return 0.395
	case AccessAdjacent:
		return 0.646
	case AccessNetwork:
		return 1.0
	}
	return 0
}

func (v Vector) acWeight() float64 {
	switch v.AC {
	case ComplexityHigh:
		return 0.35
	case ComplexityMedium:
		return 0.61
	case ComplexityLow:
		return 0.71
	}
	return 0
}

func (v Vector) auWeight() float64 {
	switch v.Au {
	case AuthMultiple:
		return 0.45
	case AuthSingle:
		return 0.56
	case AuthNone:
		return 0.704
	}
	return 0
}

func impactWeight(i Impact) float64 {
	switch i {
	case ImpactNone:
		return 0
	case ImpactPartial:
		return 0.275
	case ImpactComplete:
		return 0.660
	}
	return 0
}

// Validate reports whether every metric of the vector holds a defined
// value.
func (v Vector) Validate() error {
	if v.AV < AccessLocal || v.AV > AccessNetwork {
		return fmt.Errorf("cvss: invalid access vector %d", v.AV)
	}
	if v.AC < ComplexityHigh || v.AC > ComplexityLow {
		return fmt.Errorf("cvss: invalid access complexity %d", v.AC)
	}
	if v.Au < AuthMultiple || v.Au > AuthNone {
		return fmt.Errorf("cvss: invalid authentication %d", v.Au)
	}
	for _, i := range []Impact{v.C, v.I, v.A} {
		if i < ImpactNone || i > ImpactComplete {
			return fmt.Errorf("cvss: invalid impact value %d", i)
		}
	}
	return nil
}

// ImpactScore returns the CVSS v2 impact sub-score in [0, 10.0]:
// 10.41 * (1 - (1-C)(1-I)(1-A)), unrounded.
func (v Vector) ImpactScore() float64 {
	return 10.41 * (1 - (1-impactWeight(v.C))*(1-impactWeight(v.I))*(1-impactWeight(v.A)))
}

// ImpactScoreRounded returns the impact sub-score rounded to one decimal,
// the precision at which the paper's Table I reports attack impact.
func (v Vector) ImpactScoreRounded() float64 { return mathx.Round1(v.ImpactScore()) }

// ExploitabilityScore returns the CVSS v2 exploitability sub-score in
// [0, 10.0]: 20 * AV * AC * Au, unrounded.
func (v Vector) ExploitabilityScore() float64 {
	return 20 * v.avWeight() * v.acWeight() * v.auWeight()
}

// BaseScore returns the CVSS v2 base score rounded to one decimal:
// ((0.6*Impact) + (0.4*Exploitability) - 1.5) * f(Impact), with
// f(Impact) = 0 when the impact sub-score is zero and 1.176 otherwise.
func (v Vector) BaseScore() float64 {
	impact := v.ImpactScore()
	f := 1.176
	if impact == 0 {
		f = 0
	}
	return mathx.Round1(((0.6 * impact) + (0.4 * v.ExploitabilityScore()) - 1.5) * f)
}

// AttackSuccessProbability maps the exploitability sub-score to the
// paper's attack success probability: exploitability / 10, rounded to two
// decimals (Table I).
func (v Vector) AttackSuccessProbability() float64 {
	return mathx.Round2(v.ExploitabilityScore() / 10)
}

// String renders the vector in the canonical short form, e.g.
// "AV:N/AC:L/Au:N/C:C/I:C/A:C".
func (v Vector) String() string {
	av := map[AccessVector]string{AccessLocal: "L", AccessAdjacent: "A", AccessNetwork: "N"}[v.AV]
	ac := map[AccessComplexity]string{ComplexityHigh: "H", ComplexityMedium: "M", ComplexityLow: "L"}[v.AC]
	au := map[Authentication]string{AuthMultiple: "M", AuthSingle: "S", AuthNone: "N"}[v.Au]
	imp := map[Impact]string{ImpactNone: "N", ImpactPartial: "P", ImpactComplete: "C"}
	return fmt.Sprintf("AV:%s/AC:%s/Au:%s/C:%s/I:%s/A:%s", av, ac, au, imp[v.C], imp[v.I], imp[v.A])
}

// Parse parses a CVSS v2 base vector of the form
// "AV:N/AC:L/Au:N/C:C/I:C/A:C" (optionally wrapped in parentheses, as NVD
// renders it). All six base metrics must be present exactly once.
func Parse(s string) (Vector, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "(")
	s = strings.TrimSuffix(s, ")")
	parts := strings.Split(s, "/")
	if len(parts) != 6 {
		return Vector{}, fmt.Errorf("cvss: vector %q must have 6 metrics, found %d", s, len(parts))
	}
	var v Vector
	seen := make(map[string]bool, 6)
	for _, part := range parts {
		kv := strings.SplitN(part, ":", 2)
		if len(kv) != 2 {
			return Vector{}, fmt.Errorf("cvss: malformed metric %q", part)
		}
		name, val := kv[0], kv[1]
		if seen[name] {
			return Vector{}, fmt.Errorf("cvss: duplicate metric %q", name)
		}
		seen[name] = true
		var err error
		switch name {
		case "AV":
			v.AV, err = parseAV(val)
		case "AC":
			v.AC, err = parseAC(val)
		case "Au":
			v.Au, err = parseAu(val)
		case "C":
			v.C, err = parseImpact(val)
		case "I":
			v.I, err = parseImpact(val)
		case "A":
			v.A, err = parseImpact(val)
		default:
			err = fmt.Errorf("cvss: unknown metric %q", name)
		}
		if err != nil {
			return Vector{}, err
		}
	}
	if err := v.Validate(); err != nil {
		return Vector{}, fmt.Errorf("cvss: vector %q incomplete: %w", s, err)
	}
	return v, nil
}

// MustParse is Parse for statically known vectors; it panics on error and
// is intended for curated datasets and tests.
func MustParse(s string) Vector {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

func parseAV(s string) (AccessVector, error) {
	switch s {
	case "L":
		return AccessLocal, nil
	case "A":
		return AccessAdjacent, nil
	case "N":
		return AccessNetwork, nil
	}
	return 0, fmt.Errorf("cvss: invalid AV value %q", s)
}

func parseAC(s string) (AccessComplexity, error) {
	switch s {
	case "H":
		return ComplexityHigh, nil
	case "M":
		return ComplexityMedium, nil
	case "L":
		return ComplexityLow, nil
	}
	return 0, fmt.Errorf("cvss: invalid AC value %q", s)
}

func parseAu(s string) (Authentication, error) {
	switch s {
	case "M":
		return AuthMultiple, nil
	case "S":
		return AuthSingle, nil
	case "N":
		return AuthNone, nil
	}
	return 0, fmt.Errorf("cvss: invalid Au value %q", s)
}

func parseImpact(s string) (Impact, error) {
	switch s {
	case "N":
		return ImpactNone, nil
	case "P":
		return ImpactPartial, nil
	case "C":
		return ImpactComplete, nil
	}
	return 0, fmt.Errorf("cvss: invalid impact value %q", s)
}
