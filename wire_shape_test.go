package redpatch

import (
	"encoding/json"
	"reflect"
	"testing"

	"redpatch/internal/engine"
	"redpatch/internal/fleet"
)

// TestWireShapes pins the JSON the served and stored types write. Each
// type carries its wire tags on its one definition, so a renamed tag or
// a reordered field would change a request, a stream line or a fleet
// dump, and no golden covers the scenario or fleet answers. The reports
// are pinned too: bench/ decodes answers into them, and FuzzReportJSON,
// which compares two encoders of one type, cannot see a field renamed
// in both. Every value is fully populated, both bounds included, and
// must marshal to these bytes and decode back to itself.
func TestWireShapes(t *testing.T) {
	for _, c := range []struct {
		v    any
		want string
	}{
		{
			TierSpec{Role: "web", Replicas: 2, Variant: "webalt"},
			`{"role":"web","replicas":2,"variant":"webalt"}`,
		},
		{
			DesignSpec{Name: "mine", Tiers: []TierSpec{{Role: "dns", Replicas: 1}, {Role: "web", Replicas: 2, Variant: "webalt"}}},
			`{"name":"mine","tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2,"variant":"webalt"}]}`,
		},
		{
			TierSweep{Role: "web", Min: 1, Max: 3, Variants: []string{"", "webalt"}},
			`{"role":"web","min":1,"max":3,"variants":["","webalt"]}`,
		},
		{
			SpecSweepRequest{
				Tiers:   []TierSweep{{Role: "dns", Min: 1, Max: 2}, {Role: "web", Min: 1, Max: 3, Variants: []string{"", "webalt"}}},
				Scatter: &ScatterBounds{MaxASP: 0.2, MinCOA: 0.9962},
				Multi:   &MultiBounds{MaxASP: 0.2, MaxNoEV: 9, MaxNoAP: 2, MaxNoEP: 1, MinCOA: 0.9962},
			},
			`{"tiers":[{"role":"dns","min":1,"max":2},{"role":"web","min":1,"max":3,"variants":["","webalt"]}],` +
				`"scatter":{"maxAsp":0.2,"minCoa":0.9962},"multi":{"maxAsp":0.2,"maxNoev":9,"maxNoap":2,"maxNoep":1,"minCoa":0.9962}}`,
		},
		{
			RolloutSchedule{Strategy: "canary", Steps: 3, CanaryFraction: 0.1, Order: []int{2, 0, 1}, Fractions: [][]float64{{0, 0.5}, {1, 1}}},
			`{"strategy":"canary","steps":3,"canaryFraction":0.1,"order":[2,0,1],"fractions":[[0,0.5],[1,1]]}`,
		},
		{
			EngineStats{Solves: 1, Hits: 2, FactoredSolves: 3, TierSolves: 4, TierFactorHits: 5,
				SecurityFactored: 6, SecuritySolves: 7, SecurityFactorHits: 8, RolloutSolves: 9, RolloutHits: 10},
			`{"solves":1,"hits":2,"factoredSolves":3,"tierSolves":4,"tierFactorHits":5,` +
				`"securityFactored":6,"securitySolves":7,"securityFactorHits":8,"rolloutSolves":9,"rolloutHits":10}`,
		},
		{
			engine.Summary{AIM: 52.2, ASP: 1, NoEV: 26, NoAP: 8, NoEP: 3},
			`{"AIM":52.2,"ASP":1,"NoEV":26,"NoAP":8,"NoEP":3}`,
		},
		{
			DesignReport{Name: "mine", Description: "1 DNS + 2 WEBALT",
				Spec:    DesignSpec{Name: "mine", Tiers: []TierSpec{{Role: "dns", Replicas: 1}, {Role: "web", Replicas: 2, Variant: "webalt"}}},
				Servers: 3,
				Before:  engine.Summary{AIM: 52.2, ASP: 1, NoEV: 26, NoAP: 8, NoEP: 3},
				After:   engine.Summary{AIM: 42.2, ASP: 0.23442368503554004, NoEV: 11, NoAP: 4, NoEP: 2},
				COA:     0.9970721291594327, ServiceAvailability: 0.9978018703503317},
			`{"Name":"mine","Description":"1 DNS + 2 WEBALT","Spec":{"name":"mine","tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2,"variant":"webalt"}]},` +
				`"Servers":3,"Before":{"AIM":52.2,"ASP":1,"NoEV":26,"NoAP":8,"NoEP":3},"After":{"AIM":42.2,"ASP":0.23442368503554004,"NoEV":11,"NoAP":4,"NoEP":2},` +
				`"COA":0.9970721291594327,"ServiceAvailability":0.9978018703503317}`,
		},
		{
			RolloutReport{Step: 2, Fractions: []float64{0, 0.5}, Patched: []int{0, 1},
				Security: engine.Summary{AIM: 42.2, ASP: 0.23442368503554004, NoEV: 11, NoAP: 4, NoEP: 2}, COA: 0.9981, ServiceAvailability: 0.9992},
			`{"step":2,"fractions":[0,0.5],"patched":[0,1],"security":{"AIM":42.2,"ASP":0.23442368503554004,"NoEV":11,"NoAP":4,"NoEP":2},"coa":0.9981,"serviceAvailability":0.9992}`,
		},
		{
			fleet.System{ID: "prod-a", Scenario: "weekly", Tiers: []TierSpec{{Role: "dns", Replicas: 1}, {Role: "web", Replicas: 2, Variant: "webalt"}},
				Role: "app", Priority: 1.5, WindowMinutes: 60, DeadlineHours: 720, SuccessProbability: 0.9, RollbackMinutes: 15},
			`{"id":"prod-a","scenario":"weekly","tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2,"variant":"webalt"}],` +
				`"role":"app","priority":1.5,"windowMinutes":60,"deadlineHours":720,"successProbability":0.9,"rollbackMinutes":15}`,
		},
	} {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("%T: %v", c.v, err)
		}
		if string(got) != c.want {
			t.Errorf("%T marshals to\n\t%s\nwant\n\t%s", c.v, got, c.want)
		}
		back := reflect.New(reflect.TypeOf(c.v))
		if err := json.Unmarshal(got, back.Interface()); err != nil {
			t.Fatalf("%T: decoding its own bytes: %v", c.v, err)
		}
		if !reflect.DeepEqual(back.Elem().Interface(), c.v) {
			t.Errorf("%T decodes back to %+v, want %+v", c.v, back.Elem().Interface(), c.v)
		}
	}
}
