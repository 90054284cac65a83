package paperdata

import (
	"reflect"
	"testing"
)

func TestLogicalIndices(t *testing.T) {
	spec := DesignSpec{
		Name: "het",
		Tiers: []TierSpec{
			{Role: RoleDNS, Replicas: 2},
			{Role: RoleWeb, Replicas: 3},
			{Role: RoleApp, Replicas: 4},
			{Role: RoleWeb, Replicas: 2, Variant: RoleWebAlt},
			{Role: RoleDB, Replicas: 2},
		},
	}
	got := spec.LogicalIndices()
	want := [][]int{{0}, {1, 3}, {2}, {4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LogicalIndices = %v, want %v", got, want)
	}
	// The indices line up with Logical(): same layer count, same group
	// counts, and the referenced tiers match the logical groups.
	logical := spec.Logical()
	if len(logical) != len(got) {
		t.Fatalf("%d logical tiers, %d index groups", len(logical), len(got))
	}
	for li, lt := range logical {
		if len(lt.Groups) != len(got[li]) {
			t.Fatalf("logical tier %d: %d groups, %d indices", li, len(lt.Groups), len(got[li]))
		}
		for gi, idx := range got[li] {
			if !reflect.DeepEqual(spec.Tiers[idx], lt.Groups[gi]) {
				t.Errorf("logical tier %d group %d: index %d points at %+v, logical has %+v",
					li, gi, idx, spec.Tiers[idx], lt.Groups[gi])
			}
		}
	}
}

func TestSpecRolloutQuotient(t *testing.T) {
	spec := DesignSpec{
		Name: "het",
		Tiers: []TierSpec{
			{Role: RoleDNS, Replicas: 2},
			{Role: RoleWeb, Replicas: 3},
			{Role: RoleWeb, Replicas: 2, Variant: RoleWebAlt},
			{Role: RoleWeb, Replicas: 1}, // same stack as the first web group: merges
			{Role: RoleApp, Replicas: 4},
			{Role: RoleDB, Replicas: 2},
		},
	}
	// Patch 1 of 2 dns, 2 of the 4 merged web (1 from each group), all
	// webalt, none of app, all db: dns and web split, the rest stay
	// single-class.
	rq := SpecRolloutQuotient(spec, []int{1, 1, 2, 1, 0, 2})
	wantHosts := []string{
		"dns1", "dns2", // 1 unpatched, then 1 patched
		"web1", "web2", // 2 unpatched, then 2 patched
		"webalt1", "app1", "db1",
	}
	if want := []int{1, 1, 2, 2, 2, 4, 2}; !reflect.DeepEqual(rq.Counts, want) {
		t.Errorf("Counts = %v, want %v", rq.Counts, want)
	}
	if !reflect.DeepEqual(rq.Hosts, wantHosts) {
		t.Errorf("Hosts = %v, want %v", rq.Hosts, wantHosts)
	}
	wantPatched := map[string]string{
		"dns2": "dns", "web2": "web", "webalt1": "webalt", "db1": "db",
	}
	if !reflect.DeepEqual(rq.PatchedHosts, wantPatched) {
		t.Errorf("PatchedHosts = %v, want %v", rq.PatchedHosts, wantPatched)
	}
	for _, tier := range rq.Quotient.Tiers {
		if tier.Replicas != 1 {
			t.Errorf("quotient tier %s has %d replicas, want 1", string(tier.appendLabel(nil)), tier.Replicas)
		}
	}
	// Every class host is a host of the quotient topology.
	top := SpecTopology(rq.Quotient)
	for _, name := range wantHosts {
		if _, ok := top.Node(name); !ok {
			t.Errorf("quotient topology missing class host %q", name)
		}
	}

	// The structure key distinguishes which duplicate group is patched
	// and is replica-independent for a fixed patch pattern shape.
	flipped := SpecRolloutQuotient(spec, []int{1, 2, 0, 1, 4, 0})
	if flipped.Structure == rq.Structure {
		t.Error("different patch patterns must not share a structure key")
	}

	// The degenerate points share one quotient (TestSpecQuotient pins the
	// all-unpatched one): only the patch-state markers differ.
	zero := SpecRolloutQuotient(spec, make([]int, len(spec.Tiers)))
	full := []int{2, 3, 2, 1, 4, 2}
	one := SpecRolloutQuotient(spec, full)
	if one.Quotient.Key() != zero.Quotient.Key() {
		t.Errorf("all-patched quotient key %q != all-unpatched %q", one.Quotient.Key(), zero.Quotient.Key())
	}
	if !reflect.DeepEqual(one.Hosts, zero.Hosts) || !reflect.DeepEqual(one.Counts, zero.Counts) {
		t.Errorf("all-patched classes %v %v != all-unpatched %v %v", one.Hosts, one.Counts, zero.Hosts, zero.Counts)
	}
	if len(one.PatchedHosts) != len(one.Quotient.Tiers) {
		t.Errorf("all-patched PatchedHosts = %v, want every class", one.PatchedHosts)
	}
	if zero.Structure == one.Structure {
		t.Error("all-unpatched and all-patched must not share a structure key")
	}
}

// TestSpecQuotient pins the all-unpatched point of SpecRolloutQuotient:
// the replica collapse of a spec into one host per stack class.
func TestSpecQuotient(t *testing.T) {
	spec := DesignSpec{
		Name: "het",
		Tiers: []TierSpec{
			{Role: RoleDNS, Replicas: 2},
			{Role: RoleWeb, Replicas: 3},
			{Role: RoleWeb, Replicas: 2, Variant: RoleWebAlt},
			{Role: RoleWeb, Replicas: 1}, // same stack as the first web group: merges
			{Role: RoleApp, Replicas: 4},
			{Role: RoleDB, Replicas: 2},
		},
	}
	zero := SpecRolloutQuotient(spec, make([]int, len(spec.Tiers)))
	if len(zero.Quotient.Tiers) != 5 {
		t.Fatalf("quotient tiers = %d, want 5 (web groups merged)", len(zero.Quotient.Tiers))
	}
	for _, tier := range zero.Quotient.Tiers {
		if tier.Replicas != 1 {
			t.Errorf("quotient tier %s has %d replicas, want 1", string(tier.appendLabel(nil)), tier.Replicas)
		}
	}
	wantHosts := []string{"dns1", "web1", "webalt1", "app1", "db1"}
	if !reflect.DeepEqual(zero.Hosts, wantHosts) {
		t.Errorf("Hosts = %v, want %v", zero.Hosts, wantHosts)
	}
	if want := []int{2, 4, 2, 4, 2}; !reflect.DeepEqual(zero.Counts, want) {
		t.Errorf("Counts = %v, want %v", zero.Counts, want)
	}
	if len(zero.PatchedHosts) != 0 {
		t.Errorf("PatchedHosts = %v, want empty", zero.PatchedHosts)
	}

	// The structure key is replica-independent: scaling any group leaves
	// it unchanged, while changing the variant set does not.
	scaled := spec
	scaled.Tiers = append([]TierSpec(nil), spec.Tiers...)
	scaled.Tiers[1].Replicas = 1
	scaled.Tiers[4].Replicas = 2
	scaledZero := SpecRolloutQuotient(scaled, make([]int, len(spec.Tiers)))
	if scaledZero.Structure != zero.Structure {
		t.Errorf("structure changed with replica counts: %q != %q", scaledZero.Structure, zero.Structure)
	}
	homogeneous := Design{Name: "h", DNS: 2, Web: 3, App: 4, DB: 2}.Spec()
	homZero := SpecRolloutQuotient(homogeneous, make([]int, len(homogeneous.Tiers)))
	if homZero.Structure == zero.Structure {
		t.Error("variant and homogeneous specs must not share a structure key")
	}

	// The quotient topology names match the class hosts.
	top := SpecTopology(zero.Quotient)
	for _, name := range wantHosts {
		if _, ok := top.Node(name); !ok {
			t.Errorf("quotient topology missing class host %q", name)
		}
	}
}

// TestFoldMatchesRolloutQuotient pins the allocation-free fold the
// security memo is probed with to the quotient its miss path builds:
// on a heterogeneous seven-group spec — a web class split over two
// groups around a webalt group, a repeated role, a variant in the last
// tier — every one of the 2,160 patched vectors folds to exactly
// SpecRolloutQuotient's structure key and class multiplicities.
func TestFoldMatchesRolloutQuotient(t *testing.T) {
	spec := DesignSpec{
		Name: "fold",
		Tiers: []TierSpec{
			{Role: RoleDNS, Replicas: 1},
			{Role: RoleWeb, Replicas: 2},
			{Role: RoleWeb, Replicas: 2, Variant: RoleWebAlt},
			{Role: RoleApp, Replicas: 3},
			{Role: RoleWeb, Replicas: 1},
			{Role: RoleDB, Replicas: 4},
			{Role: RoleDB, Replicas: 2, Variant: RoleWebAlt},
		},
	}
	patched := make([]int, len(spec.Tiers))
	points := 0
	for {
		rq := SpecRolloutQuotient(spec, patched)
		key, counts := FoldRollout(nil, nil, spec, patched)
		if string(key) != rq.Structure {
			t.Fatalf("patched %v: fold key %q != structure %q", patched, key, rq.Structure)
		}
		if !reflect.DeepEqual(counts, rq.Counts) {
			t.Fatalf("patched %v: fold counts %v != quotient counts %v", patched, counts, rq.Counts)
		}
		points++
		// Odometer over every patched vector, 0..Replicas per group.
		i := 0
		for ; i < len(patched); i++ {
			if patched[i] < spec.Tiers[i].Replicas {
				patched[i]++
				break
			}
			patched[i] = 0
		}
		if i == len(patched) {
			break
		}
	}
	if points != 2160 {
		t.Errorf("checked %d patched vectors, want 2160", points)
	}
	// nil patches nothing, and the fold appends after a caller's prefix.
	zero, zeroCounts := FoldRollout(nil, nil, spec, make([]int, len(spec.Tiers)))
	key, counts := FoldRollout([]byte("x"), []int{7}, spec, nil)
	if string(key) != "x"+string(zero) || !reflect.DeepEqual(counts, append([]int{7}, zeroCounts...)) {
		t.Errorf("nil-patched fold after a prefix = %q %v, want %q %v", key, counts, "x"+string(zero), append([]int{7}, zeroCounts...))
	}
}
