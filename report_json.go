package redpatch

import (
	"strconv"

	"redpatch/internal/wire"
)

// This file is the facade's typed JSON encoder: DesignReport and
// RolloutReport append their own encoding, byte for byte what
// encoding/json writes for their fields and tags, without reflection.
// redpatchd appends them straight into its pooled response buffers.

// AppendJSON appends the report's JSON encoding to b: the bytes
// encoding/json writes for a DesignReport, with its untagged field
// names, HTML-escaped strings and shortest round-trip floats. A NaN or
// infinite metric is the error encoding/json reports for it, and b is
// returned unchanged.
func (r DesignReport) AppendJSON(b []byte) ([]byte, error) {
	if err := wire.CheckFinite(r.Before.AIM, r.Before.ASP, r.After.AIM, r.After.ASP,
		r.COA, r.ServiceAvailability); err != nil {
		return b, err
	}
	b = wire.AppendString(append(b, `{"Name":`...), r.Name)
	b = wire.AppendString(append(b, `,"Description":`...), r.Description)
	b = appendSpecJSON(append(b, `,"Spec":`...), r.Spec)
	b = strconv.AppendInt(append(b, `,"Servers":`...), int64(r.Servers), 10)
	b = r.Before.appendJSON(append(b, `,"Before":`...))
	b = r.After.appendJSON(append(b, `,"After":`...))
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
	b = r.Security.appendJSON(append(b, `,"security":`...))
	b = wire.AppendFloat(append(b, `,"coa":`...), r.COA)
	b = wire.AppendFloat(append(b, `,"serviceAvailability":`...), r.ServiceAvailability)
	return append(b, '}'), nil
}

// appendSpecJSON appends the spec under its wire tags.
func appendSpecJSON(b []byte, s DesignSpec) []byte {
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

// appendJSON appends the summary under its untagged field names; the
// caller has checked that AIM and ASP are finite.
func (s SecuritySummary) appendJSON(b []byte) []byte {
	b = wire.AppendFloat(append(b, `{"AIM":`...), s.AIM)
	b = wire.AppendFloat(append(b, `,"ASP":`...), s.ASP)
	b = strconv.AppendInt(append(b, `,"NoEV":`...), int64(s.NoEV), 10)
	b = strconv.AppendInt(append(b, `,"NoAP":`...), int64(s.NoAP), 10)
	b = strconv.AppendInt(append(b, `,"NoEP":`...), int64(s.NoEP), 10)
	return append(b, '}')
}
