package redundancy

import (
	"testing"
	"time"

	"redpatch/internal/vulndb"
)

func TestCampaignResidualASP(t *testing.T) {
	e, _ := evaluator(t)
	camp, err := e.PlanCampaign("app", 35*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if camp.TotalRounds() < 2 {
		t.Fatalf("rounds = %d, want a split campaign", camp.TotalRounds())
	}
	traj, err := e.CampaignResidualASP("app", camp)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != camp.TotalRounds()+1 {
		t.Fatalf("trajectory %d entries, want %d", len(traj), camp.TotalRounds()+1)
	}
	for i := 1; i < len(traj); i++ {
		if traj[i] > traj[i-1] {
			t.Errorf("residual grew at round %d: %v -> %v", i, traj[i-1], traj[i])
		}
	}
	if traj[0] <= 0 || traj[0] > 1 {
		t.Errorf("initial residual %v outside (0, 1]", traj[0])
	}
	// Everything fit a round (no deferrals), so the floor is clean.
	if len(camp.Deferred) == 0 && traj[len(traj)-1] != 0 {
		t.Errorf("final residual %v, want 0 with nothing deferred", traj[len(traj)-1])
	}
	// The trajectory composes exactly the campaign's own selected set —
	// the identity the fleet simulator relies on.
	var all []vulndb.Vulnerability
	for _, r := range camp.Rounds {
		all = append(all, r.Selected...)
	}
	all = append(all, camp.Deferred...)
	for i := range traj {
		if want := vulndb.CompositeASP(camp.ResidualAfterRound(i, all)); traj[i] != want {
			t.Errorf("entry %d = %v, campaign-derived %v (must be bit-identical)", i, traj[i], want)
		}
	}

	if _, err := e.CampaignResidualASP("nope", camp); err == nil {
		t.Error("unknown role should fail")
	}
}
