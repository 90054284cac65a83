package engine

import (
	"strconv"

	"redpatch/internal/harm"
	"redpatch/internal/paperdata"
	"redpatch/internal/redundancy"
	"redpatch/internal/wire"
)

// This file holds the types the engine serves — one per answer, built
// straight from a memo entry — the paper's Eq. 3 and Eq. 4 over them,
// and their typed JSON encoders: byte for byte what encoding/json
// writes for their fields and tags, without reflection. redpatchd
// appends them straight into its pooled response buffers.

// Summary carries the paper's five security metrics for one design at
// one point in time: before or after the patch round, or mid-rollout.
type Summary struct {
	// AIM is the network-level attack impact.
	AIM float64
	// ASP is the network-level attack success probability.
	ASP float64
	// NoEV is the number of exploitable vulnerabilities across servers.
	NoEV int
	// NoAP is the number of attack paths to the target tier.
	NoAP int
	// NoEP is the number of entry points.
	NoEP int
}

// summarize keeps the five numbers of a solver's metrics that the memo
// stores and a report serves.
func summarize(m harm.Metrics) Summary {
	return Summary{AIM: m.AIM, ASP: m.ASP, NoEV: m.NoEV, NoAP: m.NoAP, NoEP: m.NoEP}
}

// Report is the combined evaluation of one redundancy design.
type Report struct {
	// Name labels the design; Description renders it in the paper's
	// "1 DNS + 2 WEB + 2 APP + 1 DB" notation.
	Name, Description string
	// Spec is the role-keyed design the report was evaluated from. Its
	// Tiers are the evaluated spec's own slice, not a copy.
	Spec paperdata.DesignSpec
	// Servers is the total server count.
	Servers int
	// Before and After are the security metrics around the patch round.
	Before, After Summary
	// COA is the capacity oriented availability under the patch
	// schedule.
	COA float64
	// ServiceAvailability is P(at least one server up per tier).
	ServiceAvailability float64
}

// RolloutReport is the evaluation of one design at one rollout point.
// The JSON tags are the redpatchd v2 NDJSON wire shape.
type RolloutReport struct {
	// Step is the point's index in the schedule's expansion.
	Step int `json:"step"`
	// Fractions are the per-tier rollout fractions of the point.
	Fractions []float64 `json:"fractions"`
	// Patched are the per-tier patched replica counts (ceil(f*n)).
	Patched []int `json:"patched"`
	// Security holds the mixed-version security metrics: patched
	// replicas contribute post-patch attack trees, unpatched ones their
	// pre-patch trees.
	Security Summary `json:"security"`
	// COA is the capacity oriented availability mid-rollout.
	COA float64 `json:"coa"`
	// ServiceAvailability is P(at least one server up in every tier).
	ServiceAvailability float64 `json:"serviceAvailability"`
}

// entry is one memo value: the numbers a report serves. An atomic
// design fills both sides of the patch round; a rollout point keeps its
// mixed-version security in before and leaves after zero.
type entry struct {
	before, after Summary
	coa, sa       float64
}

func atomicEntry(r redundancy.Result) entry {
	return entry{before: summarize(r.Before), after: summarize(r.After), coa: r.COA, sa: r.ServiceAvailability}
}

func rolloutEntry(r redundancy.RolloutResult) entry {
	return entry{before: summarize(r.Security), coa: r.COA, sa: r.ServiceAvailability}
}

// report is spec's report from its entry, with the description desc.
func (v entry) report(spec paperdata.DesignSpec, desc string) Report {
	return Report{Name: spec.Name, Description: desc, Spec: spec, Servers: spec.Total(),
		Before: v.before, After: v.after, COA: v.coa, ServiceAvailability: v.sa}
}

// rollout is the report of a rollout point at schedule index step.
func (v entry) rollout(step int, fractions []float64, patched []int) RolloutReport {
	return RolloutReport{Step: step, Fractions: fractions, Patched: patched,
		Security: v.before, COA: v.coa, ServiceAvailability: v.sa}
}

// resolve names the spec and renders the description its report
// carries. A spec without a name gets its canonical one; the name and
// the description are then built as one string, which both slice.
func resolve(s paperdata.DesignSpec) (paperdata.DesignSpec, string) {
	var buf [128]byte
	b := buf[:0]
	if s.Name == "" {
		b = s.AppendCanonicalName(b)
	}
	n := len(b)
	text := string(s.AppendString(b))
	if s.Name == "" {
		s.Name = text[:n]
	}
	return s, text[n:]
}

// ScatterBounds are the administrator bounds of the paper's Eq. 3:
// an upper bound phi on ASP and a lower bound psi on COA. The JSON tags
// are the redpatchd v2 wire shape.
type ScatterBounds struct {
	MaxASP float64 `json:"maxAsp"` // phi
	MinCOA float64 `json:"minCoa"` // psi
}

// Satisfied implements Eq. 3 on the after-patch metrics: 1 iff
// ASP <= phi and COA >= psi.
func (b ScatterBounds) Satisfied(r Report) bool {
	return r.After.ASP <= b.MaxASP && r.COA >= b.MinCOA
}

// MultiBounds are the administrator bounds of the paper's Eq. 4: upper
// bounds on ASP, NoEV, NoAP and NoEP plus a lower bound on COA. The
// JSON tags are the redpatchd v2 wire shape.
type MultiBounds struct {
	MaxASP  float64 `json:"maxAsp"`  // phi
	MaxNoEV int     `json:"maxNoev"` // xi
	MaxNoAP int     `json:"maxNoap"` // omega
	MaxNoEP int     `json:"maxNoep"` // kappa
	MinCOA  float64 `json:"minCoa"`  // psi
}

// Satisfied implements Eq. 4 on the after-patch metrics.
func (b MultiBounds) Satisfied(r Report) bool {
	return r.After.ASP <= b.MaxASP &&
		r.After.NoEV <= b.MaxNoEV &&
		r.After.NoAP <= b.MaxNoAP &&
		r.After.NoEP <= b.MaxNoEP &&
		r.COA >= b.MinCOA
}

// AppendJSON appends the report's JSON encoding to b: the bytes
// encoding/json writes for a Report, with its untagged field names,
// HTML-escaped strings and shortest round-trip floats. A NaN or
// infinite metric is the error encoding/json reports for it, and b is
// returned unchanged.
func (r Report) AppendJSON(b []byte) ([]byte, error) {
	if err := wire.CheckFinite(r.Before.AIM, r.Before.ASP, r.After.AIM, r.After.ASP,
		r.COA, r.ServiceAvailability); err != nil {
		return b, err
	}
	b = wire.AppendString(append(b, `{"Name":`...), r.Name)
	b = wire.AppendString(append(b, `,"Description":`...), r.Description)
	b = appendSpecJSON(append(b, `,"Spec":`...), r.Spec)
	b = strconv.AppendInt(append(b, `,"Servers":`...), int64(r.Servers), 10)
	b = r.Before.appendJSON(append(b, `,"Before":`...), &wireKeys)
	b = r.After.appendJSON(append(b, `,"After":`...), &wireKeys)
	b = wire.AppendFloat(append(b, `,"COA":`...), r.COA)
	b = wire.AppendFloat(append(b, `,"ServiceAvailability":`...), r.ServiceAvailability)
	return append(b, '}'), nil
}

// AppendJSON appends the rollout point's JSON encoding to b: the bytes
// encoding/json writes for a RolloutReport under its wire tags. A NaN or
// infinite value is the error encoding/json reports for it, and b is
// returned unchanged.
func (r RolloutReport) AppendJSON(b []byte) ([]byte, error) {
	if err := wire.CheckFinite(r.Fractions...); err != nil {
		return b, err
	}
	if err := wire.CheckFinite(r.Security.AIM, r.Security.ASP, r.COA, r.ServiceAvailability); err != nil {
		return b, err
	}
	b = strconv.AppendInt(append(b, `{"step":`...), int64(r.Step), 10)
	b, _ = wire.AppendFloats(append(b, `,"fractions":`...), r.Fractions)
	b = wire.AppendInts(append(b, `,"patched":`...), r.Patched)
	b = r.Security.appendJSON(append(b, `,"security":`...), &wireKeys)
	b = wire.AppendFloat(append(b, `,"coa":`...), r.COA)
	b = wire.AppendFloat(append(b, `,"serviceAvailability":`...), r.ServiceAvailability)
	return append(b, '}'), nil
}

// appendSpecJSON appends the spec under its wire tags.
func appendSpecJSON(b []byte, s paperdata.DesignSpec) []byte {
	b = append(b, '{')
	if s.Name != "" {
		b = append(wire.AppendString(append(b, `"name":`...), s.Name), ',')
	}
	b = append(b, `"tiers":`...)
	if s.Tiers == nil {
		return append(b, "null}"...)
	}
	b = append(b, '[')
	for i, t := range s.Tiers {
		if i > 0 {
			b = append(b, ',')
		}
		b = wire.AppendString(append(b, `{"role":`...), t.Role)
		b = strconv.AppendInt(append(b, `,"replicas":`...), int64(t.Replicas), 10)
		if t.Variant != "" {
			b = wire.AppendString(append(b, `,"variant":`...), t.Variant)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// summaryKeys are what a summary's five numbers are written after, in
// field order, the first opening the object: the wire's untagged field
// names, or the memo dump's lower-case ones.
type summaryKeys [5]string

var (
	wireKeys = summaryKeys{`{"AIM":`, `,"ASP":`, `,"NoEV":`, `,"NoAP":`, `,"NoEP":`}
	dumpKeys = summaryKeys{`{"aim":`, `,"asp":`, `,"noev":`, `,"noap":`, `,"noep":`}
)

// appendJSON appends the summary as an object under keys; the caller
// has checked that AIM and ASP are finite.
func (s Summary) appendJSON(b []byte, keys *summaryKeys) []byte {
	b = wire.AppendFloat(append(b, keys[0]...), s.AIM)
	b = wire.AppendFloat(append(b, keys[1]...), s.ASP)
	b = strconv.AppendInt(append(b, keys[2]...), int64(s.NoEV), 10)
	b = strconv.AppendInt(append(b, keys[3]...), int64(s.NoAP), 10)
	b = strconv.AppendInt(append(b, keys[4]...), int64(s.NoEP), 10)
	return append(b, '}')
}
