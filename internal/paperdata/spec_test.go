package paperdata

import (
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestParseKeyRoundTrip: ParseKey inverts Key and AppendRolloutKey for
// classic, variant, heterogeneous and single-tier designs, at no point,
// at the endpoints and mid-rollout.
func TestParseKeyRoundTrip(t *testing.T) {
	specs := []DesignSpec{
		BaseDesign().Spec(),
		{Tiers: []TierSpec{{Role: RoleWeb, Replicas: 12, Variant: RoleWebAlt}}},
		{Tiers: []TierSpec{
			{Role: RoleDNS, Replicas: 1},
			{Role: RoleWeb, Replicas: 2},
			{Role: RoleWeb, Replicas: 3, Variant: RoleWebAlt},
			{Role: RoleDB, Replicas: 4},
		}},
	}
	for _, spec := range specs {
		key := spec.Key()
		got, patched, err := ParseKey(key)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", key, err)
		}
		if patched != nil || got.Key() != key || strings.Contains(key, rolloutSep) {
			t.Fatalf("ParseKey(%q) = %q, patched %v", key, got.Key(), patched)
		}
		zero := make([]int, len(spec.Tiers))
		full := make([]int, len(spec.Tiers))
		mid := make([]int, len(spec.Tiers))
		for i, tier := range spec.Tiers {
			full[i] = tier.Replicas
			mid[i] = (tier.Replicas + 1) / 2
		}
		for _, want := range [][]int{zero, full, mid} {
			rk := string(spec.AppendRolloutKey(nil, want))
			got, patched, err := ParseKey(rk)
			if err != nil {
				t.Fatalf("ParseKey(%q): %v", rk, err)
			}
			if !strings.Contains(rk, rolloutSep) || !slices.Equal(patched, want) || string(got.AppendRolloutKey(nil, patched)) != rk {
				t.Fatalf("ParseKey(%q) = %q at %v", rk, got.Key(), patched)
			}
		}
	}
}

// TestParseKeyRejects: keys that do not describe a valid design, or a
// rollout point that does not fit its design, fail to parse.
func TestParseKeyRejects(t *testing.T) {
	for _, key := range []string{
		"",
		"dns",
		"dns:",
		"dns:x",
		"dns:0",
		"dns:-1",
		"mainframe:1",
		"web/iis:1",
		":1",
		"dns:1;",
		"dns:1;;web:1",
		"dns:1|rollout=",
		"dns:1|rollout=2",
		"dns:1|rollout=-1",
		"dns:1;web:2|rollout=1",
		"dns:1;web:2|rollout=1,1,0",
		"dns:1|rollout=1|rollout=1",
	} {
		if spec, patched, err := ParseKey(key); err == nil {
			t.Errorf("ParseKey(%q) = %+v, %v; want an error", key, spec, patched)
		}
	}
	// Spellings the renderers never produce parse, but do not
	// re-render to themselves: callers needing the canonical form
	// compare.
	for _, key := range []string{"dns:01", "dns:+1", "web/web:1", "dns:1|rollout=01"} {
		spec, patched, err := ParseKey(key)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", key, err)
		}
		re := spec.Key()
		if patched != nil {
			re = string(spec.AppendRolloutKey(nil, patched))
		}
		if re == key {
			t.Errorf("non-canonical %q re-renders to itself", key)
		}
	}
}

// TestStringUpperCasesLikeToUpper: String renders what strings.ToUpper
// over each label would, for the catalog's ASCII labels and for labels
// whose upper case changes their byte length, and a short spec costs
// one allocation, the string itself.
func TestStringUpperCasesLikeToUpper(t *testing.T) {
	for _, spec := range []DesignSpec{
		BaseDesign().Spec(),
		{Tiers: []TierSpec{{Role: RoleDNS, Replicas: 1}, {Role: RoleWeb, Replicas: 3, Variant: RoleWebAlt}}},
		{Tiers: []TierSpec{{Role: "ſvc", Replicas: 2}, {Role: "dıb", Replicas: 1, Variant: "ǆ-x"}, {Role: "Db9", Replicas: 10}}},
	} {
		var want []string
		for _, tier := range spec.Tiers {
			want = append(want, strconv.Itoa(tier.Replicas)+" "+strings.ToUpper(tier.label()))
		}
		if got := spec.String(); got != strings.Join(want, " + ") {
			t.Errorf("String() = %q, want %q", got, strings.Join(want, " + "))
		}
	}
	base := BaseDesign().Spec()
	if got := testing.AllocsPerRun(100, func() { _ = base.String() }); got > 1 {
		t.Errorf("String() = %v allocs, want 1 (the string)", got)
	}
}

// TestValidateRejectsKeySeparators: a role or variant holding a
// separator of the key grammar fails Validate, so two different specs
// can no longer render one key. The pair below both validated before
// and both keyed as "x/dns:1;dns/web:1".
func TestValidateRejectsKeySeparators(t *testing.T) {
	forged := DesignSpec{Tiers: []TierSpec{{Role: "x/dns:1;dns", Variant: RoleWeb, Replicas: 1}}}
	honest := DesignSpec{Tiers: []TierSpec{{Role: "x", Variant: RoleDNS, Replicas: 1}, {Role: RoleDNS, Variant: RoleWeb, Replicas: 1}}}
	if err := forged.Validate(); err == nil {
		t.Errorf("Validate accepted role %q", forged.Tiers[0].Role)
	}
	if err := honest.Validate(); err != nil {
		t.Fatalf("Validate rejected %v: %v", honest, err)
	}
	if got := honest.Key(); got != "x/dns:1;dns/web:1" {
		t.Errorf("Key() = %q", got)
	}
	for _, sep := range strings.Split(keySeparators, "") {
		for _, tier := range []TierSpec{
			{Role: "a" + sep + "b", Variant: RoleWeb, Replicas: 1},
			{Role: RoleWeb, Variant: RoleWebAlt + sep, Replicas: 1},
		} {
			if err := (DesignSpec{Tiers: []TierSpec{tier}}).Validate(); err == nil {
				t.Errorf("Validate accepted tier %+v", tier)
			}
		}
	}
}
