package patch

import (
	"encoding/json"
	"testing"
	"time"
)

func TestAttemptValidate(t *testing.T) {
	if err := (Attempt{SuccessProbability: 1}).Validate(); err != nil {
		t.Errorf("the perfect attempt is invalid: %v", err)
	}
	cases := []Attempt{
		{SuccessProbability: 0},
		{SuccessProbability: -0.1},
		{SuccessProbability: 1.1},
		{SuccessProbability: 0.9, Rollback: -time.Minute},
	}
	for _, a := range cases {
		if err := a.Validate(); err == nil {
			t.Errorf("Attempt %+v should be invalid", a)
		}
	}
}

func TestFailedAndExpectedDowntime(t *testing.T) {
	plan, err := Compute("app", appServerVulns(), CriticalPolicy(), MonthlySchedule())
	if err != nil {
		t.Fatal(err)
	}
	// 15 min service + 30 min OS patching, 15 min reboots = 60 min total.
	if got := plan.TotalDowntime(); got != 60*time.Minute {
		t.Fatalf("TotalDowntime = %v, want 60m", got)
	}
	a := Attempt{SuccessProbability: 0.8, Rollback: 6 * time.Minute}
	// Failure strikes halfway through the 45 min of patch work, then
	// 6 min rollback and the 15 min of reboots: 43.5 min.
	wantFailed := 45*time.Minute/2 + 6*time.Minute + 15*time.Minute
	if got := plan.FailedDowntime(a); got != wantFailed {
		t.Errorf("FailedDowntime = %v, want %v", got, wantFailed)
	}
	wantExpected := time.Duration(0.8*float64(60*time.Minute) + 0.2*float64(wantFailed))
	if got := plan.ExpectedDowntime(a); got != wantExpected {
		t.Errorf("ExpectedDowntime = %v, want %v", got, wantExpected)
	}
	// The perfect attempt collapses to the paper's atomic window.
	if got := plan.ExpectedDowntime(Attempt{SuccessProbability: 1}); got != plan.TotalDowntime() {
		t.Errorf("perfect ExpectedDowntime = %v, want %v", got, plan.TotalDowntime())
	}
	// An empty plan has no downtime on either branch.
	var empty Plan
	if empty.FailedDowntime(a) != 0 || empty.ExpectedDowntime(a) != 0 {
		t.Error("empty plan should cost nothing on either branch")
	}
}

func TestOutcomeJSON(t *testing.T) {
	for _, o := range []Outcome{OutcomeSucceeded, OutcomeRolledBack, OutcomeDeferred} {
		data, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		var back Outcome
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != o {
			t.Errorf("round trip %v -> %s -> %v", o, data, back)
		}
	}
	var o Outcome
	if err := json.Unmarshal([]byte(`"exploded"`), &o); err == nil {
		t.Error("unknown outcome label should fail")
	}
	if got := Outcome(99).String(); got != "Outcome(99)" {
		t.Errorf("String() = %q", got)
	}
}
