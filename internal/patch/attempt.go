package patch

import (
	"encoding/json"
	"fmt"
	"time"
)

// Outcome classifies how one patch-window attempt ended.
type Outcome int

// Outcome values.
const (
	// OutcomeSucceeded marks a window whose patches all applied; the
	// round's vulnerabilities leave the residual set.
	OutcomeSucceeded Outcome = iota + 1
	// OutcomeRolledBack marks a failed window: the rollback procedure ran
	// and the system came back up unpatched, so the round's
	// vulnerabilities stay in the residual set and re-queue.
	OutcomeRolledBack
	// OutcomeDeferred marks a round abandoned after exhausting its
	// attempt budget; its vulnerabilities stay in the residual set for
	// the remainder of the campaign.
	OutcomeDeferred
)

// String returns the outcome label.
func (o Outcome) String() string {
	switch o {
	case OutcomeSucceeded:
		return "succeeded"
	case OutcomeRolledBack:
		return "rolledBack"
	case OutcomeDeferred:
		return "deferred"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// MarshalJSON encodes the outcome as its label.
func (o Outcome) MarshalJSON() ([]byte, error) { return json.Marshal(o.String()) }

// UnmarshalJSON decodes an outcome label.
func (o *Outcome) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	switch s {
	case "succeeded":
		*o = OutcomeSucceeded
	case "rolledBack":
		*o = OutcomeRolledBack
	case "deferred":
		*o = OutcomeDeferred
	default:
		return fmt.Errorf("patch: unknown outcome %q", s)
	}
	return nil
}

// Attempt carries the try-revert parameters of a patch window: the
// probability the window's patches all apply, and how long the rollback
// procedure takes when they do not. The paper treats every window as an
// atomic success; Attempt is the operational correction — patching
// agents carry a success probability and a rollback procedure per patch.
type Attempt struct {
	// SuccessProbability is the chance the window completes, in (0, 1].
	SuccessProbability float64
	// Rollback is the time the revert procedure adds to a failed window
	// before the system is back up unpatched.
	Rollback time.Duration
}

// Validate checks the attempt parameters.
func (a Attempt) Validate() error {
	if a.SuccessProbability <= 0 || a.SuccessProbability > 1 {
		return fmt.Errorf("patch: success probability %v outside (0, 1]", a.SuccessProbability)
	}
	if a.Rollback < 0 {
		return fmt.Errorf("patch: negative rollback duration %v", a.Rollback)
	}
	return nil
}

// FailedDowntime is the service outage of a window that fails and rolls
// back: on average the failure strikes halfway through the patch work
// (half the service + OS patch time is spent before the revert), then the
// rollback procedure runs and the system reboots back into the unpatched
// image — the reboot costs are paid either way.
func (p Plan) FailedDowntime(a Attempt) time.Duration {
	if !p.RequiresPatch() {
		return 0
	}
	return (p.ServicePatchTime+p.OSPatchTime)/2 + a.Rollback + p.OSReboot + p.ServiceReboot
}

// ExpectedDowntime is the outage of one window under the try-revert
// model: the success and failure branches weighted by the attempt's
// success probability.
func (p Plan) ExpectedDowntime(a Attempt) time.Duration {
	if !p.RequiresPatch() {
		return 0
	}
	s := a.SuccessProbability
	return time.Duration(s*float64(p.TotalDowntime()) + (1-s)*float64(p.FailedDowntime(a)))
}
