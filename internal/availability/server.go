// Package availability implements the paper's availability models: the
// lower-layer stochastic reward net of a single server (hardware, OS,
// service and patch-clock sub-models of Fig. 5 with the guard functions of
// Table III), the aggregation of its solution into a two-state patch/
// recovery abstraction (Eq. 1 and Eq. 2), and the upper-layer network
// model across server tiers whose expected steady-state reward is the
// capacity oriented availability (Fig. 4 with the Table VI reward).
package availability

import (
	"fmt"
	"time"

	"redpatch/internal/ctmc"
	"redpatch/internal/srn"
)

// ServerParams are the failure/recovery/patch timing inputs of one server
// type (paper Table IV). All values are mean durations of exponentially
// distributed activities.
type ServerParams struct {
	// Name labels the server type, e.g. "dns".
	Name string

	// HWMTBF and HWRepair are hardware mean time between failures and mean
	// repair time (paper: 87600 h and 1 h).
	HWMTBF, HWRepair time.Duration

	// OSMTBF, OSRepair and OSRebootAfterFailure parameterize OS failures
	// (paper: 1440 h, 1 h, 10 min).
	OSMTBF, OSRepair, OSRebootAfterFailure time.Duration

	// SvcMTBF, SvcRepair and SvcRebootAfterFailure parameterize service
	// failures (paper: 336 h, 30 min, 5 min).
	SvcMTBF, SvcRepair, SvcRebootAfterFailure time.Duration

	// SvcPatchTime and OSPatchTime are the per-round patch windows, the
	// product of the critical-vulnerability count and the per-vulnerability
	// patch time (internal/patch computes them).
	SvcPatchTime, OSPatchTime time.Duration

	// OSReboot and SvcReboot are the post-patch reboot/restart times
	// (paper: 10 min and 5 min).
	OSReboot, SvcReboot time.Duration

	// PatchInterval is the patch cadence (paper: 720 h).
	PatchInterval time.Duration
}

// Validate checks that every duration needed by the model is positive.
// Zero patch windows are permitted (they are clamped to one second when
// the net is built, an approximation documented on BuildServerSRN).
func (p ServerParams) Validate() error {
	named := []struct {
		label string
		d     time.Duration
	}{
		{"HWMTBF", p.HWMTBF}, {"HWRepair", p.HWRepair},
		{"OSMTBF", p.OSMTBF}, {"OSRepair", p.OSRepair}, {"OSRebootAfterFailure", p.OSRebootAfterFailure},
		{"SvcMTBF", p.SvcMTBF}, {"SvcRepair", p.SvcRepair}, {"SvcRebootAfterFailure", p.SvcRebootAfterFailure},
		{"OSReboot", p.OSReboot}, {"SvcReboot", p.SvcReboot},
		{"PatchInterval", p.PatchInterval},
	}
	for _, n := range named {
		if n.d <= 0 {
			return fmt.Errorf("availability: %s: non-positive %s (%v)", p.Name, n.label, n.d)
		}
	}
	if p.SvcPatchTime < 0 || p.OSPatchTime < 0 {
		return fmt.Errorf("availability: %s: negative patch time", p.Name)
	}
	return nil
}

// DefaultRates returns the paper's Table IV failure/recovery durations
// with the patch windows left zero (fill them from a patch plan).
func DefaultRates(name string) ServerParams {
	return ServerParams{
		Name:                  name,
		HWMTBF:                87600 * time.Hour,
		HWRepair:              time.Hour,
		OSMTBF:                1440 * time.Hour,
		OSRepair:              time.Hour,
		OSRebootAfterFailure:  10 * time.Minute,
		SvcMTBF:               336 * time.Hour,
		SvcRepair:             30 * time.Minute,
		SvcRebootAfterFailure: 5 * time.Minute,
		OSReboot:              10 * time.Minute,
		SvcReboot:             5 * time.Minute,
		PatchInterval:         720 * time.Hour,
	}
}

// rate converts a mean duration into an hourly exponential rate.
func rate(d time.Duration) float64 { return 1 / d.Hours() }

// clampDuration protects against zero-length patch windows: a server whose
// plan patches nothing in one layer still transits that pipeline stage, so
// the stage is approximated by a one-second activity (negligible against a
// 720 h cycle).
func clampDuration(d time.Duration) time.Duration {
	if d < time.Second {
		return time.Second
	}
	return d
}

// ServerPlaces exposes the places of a built server net so that callers
// can define measures against it.
type ServerPlaces struct {
	HWUp, HWDown                            *srn.Place
	OSUp, OSDown, OSFailed, OSReady, OSDone *srn.Place
	SvcUp, SvcDown, SvcFailed               *srn.Place
	SvcReady, SvcDone, SvcReboot            *srn.Place
	Clock, Trigger, Policy                  *srn.Place
}

// BuildServerSRN constructs the four-sub-model server SRN of the paper's
// Fig. 5 with the guard functions of Table III:
//
//   - hardware: Phwup <-> Phwd;
//   - OS: up / down-due-to-hardware / failed / ready-to-patch / patched;
//   - service: up / down / failed / ready-to-patch / patched /
//     ready-to-reboot;
//   - patch clock: Pclock -> Ptrigger -> Ppolicy -> Pclock.
//
// The patch pipeline follows the paper's §III-D: application patches
// first (triggered by the clock), OS patches immediately after
// (triggered by the finished application patch), one merged reboot at the
// end (OS reboot, then service restart once the OS is back up).
func BuildServerSRN(p ServerParams) (*srn.Net, *ServerPlaces, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	n := srn.New(p.Name)
	pl := &ServerPlaces{
		HWUp:      n.AddPlace("Phwup", 1),
		HWDown:    n.AddPlace("Phwd", 0),
		OSUp:      n.AddPlace("Posup", 1),
		OSDown:    n.AddPlace("Posd", 0),
		OSFailed:  n.AddPlace("Posfd", 0),
		OSReady:   n.AddPlace("Posrp", 0),
		OSDone:    n.AddPlace("Posp", 0),
		SvcUp:     n.AddPlace("Psvcup", 1),
		SvcDown:   n.AddPlace("Psvcd", 0),
		SvcFailed: n.AddPlace("Psvcfd", 0),
		SvcReady:  n.AddPlace("Psvcrp", 0),
		SvcDone:   n.AddPlace("Psvcp", 0),
		SvcReboot: n.AddPlace("Psvcrrb", 0),
		Clock:     n.AddPlace("Pclock", 1),
		Trigger:   n.AddPlace("Ptrigger", 0),
		Policy:    n.AddPlace("Ppolicy", 0),
	}

	hwUp := func(m srn.Marking) bool { return m.Tokens(pl.HWUp) == 1 }
	hwDown := func(m srn.Marking) bool { return m.Tokens(pl.HWDown) == 1 }
	osUp := func(m srn.Marking) bool { return m.Tokens(pl.OSUp) == 1 }
	hwAndOSUp := func(m srn.Marking) bool { return hwUp(m) && osUp(m) }
	hwDownOrOSFailed := func(m srn.Marking) bool {
		return hwDown(m) || m.Tokens(pl.OSFailed) == 1
	}

	// Hardware sub-model (Fig. 5a).
	n.AddTimedTransition("Thwd", rate(p.HWMTBF)).From(pl.HWUp).To(pl.HWDown)
	n.AddTimedTransition("Thwup", rate(p.HWRepair)).From(pl.HWDown).To(pl.HWUp)

	// OS sub-model (Fig. 5b).
	n.AddImmediateTransition("Tosd").From(pl.OSUp).To(pl.OSDown).WithGuard(hwDown)                           // gosd
	n.AddTimedTransition("Tosdrb", rate(p.OSRebootAfterFailure)).From(pl.OSDown).To(pl.OSUp).WithGuard(hwUp) // gosdrb
	n.AddTimedTransition("Tosfd", rate(p.OSMTBF)).From(pl.OSUp).To(pl.OSFailed)
	n.AddTimedTransition("Tosfup", rate(p.OSRepair)).From(pl.OSFailed).To(pl.OSUp).WithGuard(hwUp) // gosfup
	n.AddImmediateTransition("Tosptrig").From(pl.OSUp).To(pl.OSReady).
		WithGuard(func(m srn.Marking) bool { return m.Tokens(pl.SvcDone) == 1 }) // gosptrig
	n.AddTimedTransition("Tosp", rate(clampDuration(p.OSPatchTime))).From(pl.OSReady).To(pl.OSDone).WithGuard(hwUp) // gosp
	n.AddImmediateTransition("Tosrpd").From(pl.OSReady).To(pl.OSDown).WithGuard(hwDown)                             // gosrpd
	n.AddImmediateTransition("Tospd").From(pl.OSDone).To(pl.OSDown).WithGuard(hwDown)                               // gospd
	n.AddTimedTransition("Tosprb", rate(p.OSReboot)).From(pl.OSDone).To(pl.OSUp).WithGuard(hwUp)                    // gosprb

	// Service sub-model (Fig. 5c).
	n.AddImmediateTransition("Tsvcd").From(pl.SvcUp).To(pl.SvcDown).WithGuard(hwDownOrOSFailed)                       // gsvcd
	n.AddTimedTransition("Tsvcdrb", rate(p.SvcRebootAfterFailure)).From(pl.SvcDown).To(pl.SvcUp).WithGuard(hwAndOSUp) // gsvcdrb
	n.AddTimedTransition("Tsvcfd", rate(p.SvcMTBF)).From(pl.SvcUp).To(pl.SvcFailed)
	n.AddTimedTransition("Tsvcfup", rate(p.SvcRepair)).From(pl.SvcFailed).To(pl.SvcUp).WithGuard(hwAndOSUp) // gsvcfup
	n.AddImmediateTransition("Tsvcptrig").From(pl.SvcUp).To(pl.SvcReady).
		WithGuard(func(m srn.Marking) bool { return m.Tokens(pl.Trigger) == 1 }) // gsvcptrig
	n.AddTimedTransition("Tsvcp", rate(clampDuration(p.SvcPatchTime))).From(pl.SvcReady).To(pl.SvcDone).WithGuard(hwAndOSUp) // gsvcp
	n.AddImmediateTransition("Tsvcrpd").From(pl.SvcReady).To(pl.SvcDown).WithGuard(hwDownOrOSFailed)                         // gsvcrpd
	n.AddImmediateTransition("Tsvcrrb").From(pl.SvcDone).To(pl.SvcReboot).
		WithGuard(func(m srn.Marking) bool { return m.Tokens(pl.OSDone) == 1 }) // gsvcrrb
	n.AddImmediateTransition("Tsvcrrbd").From(pl.SvcReboot).To(pl.SvcDown).WithGuard(hwDownOrOSFailed)      // gsvcrrbd
	n.AddTimedTransition("Tsvcprb", rate(p.SvcReboot)).From(pl.SvcReboot).To(pl.SvcUp).WithGuard(hwAndOSUp) // gsvcprb

	// Patch clock sub-model (Fig. 5d).
	n.AddTimedTransition("Tinterval", rate(p.PatchInterval)).From(pl.Clock).To(pl.Trigger).
		WithGuard(func(m srn.Marking) bool {
			return m.Tokens(pl.SvcUp) == 1 || m.Tokens(pl.SvcDown) == 1 || m.Tokens(pl.SvcFailed) == 1
		}) // ginterval
	n.AddImmediateTransition("Tpolicy").From(pl.Trigger).To(pl.Policy).
		WithGuard(func(m srn.Marking) bool { return m.Tokens(pl.SvcDone) == 1 }) // gpolicy
	n.AddImmediateTransition("Treset").From(pl.Policy).To(pl.Clock).
		WithGuard(func(m srn.Marking) bool { return m.Tokens(pl.OSDone) == 1 }) // greset

	return n, pl, nil
}

// ServerSolution carries the steady-state measures of one server's SRN.
type ServerSolution struct {
	// Params echoes the inputs.
	Params ServerParams
	// ServiceUp is P(service token in Psvcup): the paper's p_up.
	ServiceUp float64
	// PatchDown is P(service token in the patch pipeline — Psvcrp, Psvcp
	// or Psvcrrb): the paper's p_pd.
	PatchDown float64
	// ReadyToReboot is P(final service restart enabled — token in Psvcrrb
	// with hardware and OS up): the paper's p_prrb.
	ReadyToReboot float64
	// FailureDown is P(service down for non-patch reasons — Psvcd or
	// Psvcfd).
	FailureDown float64
	// HardwareDown is P(hardware failed), and OSDown is P(OS token
	// anywhere but "up"); they decompose FailureDown by cause for
	// diagnostics.
	HardwareDown, OSDown float64
	// Tangible and Vanishing report the generated state-space size.
	Tangible, Vanishing int
}

// SolveServer builds and solves the server SRN and extracts the measures
// that feed the paper's aggregation equations.
func SolveServer(p ServerParams) (ServerSolution, error) {
	net, pl, err := BuildServerSRN(p)
	if err != nil {
		return ServerSolution{}, err
	}
	ss, err := net.Generate(srn.GenerateOptions{})
	if err != nil {
		return ServerSolution{}, fmt.Errorf("availability: %s: %w", p.Name, err)
	}
	pi, err := ss.SteadyState(ctmc.SolveOptions{})
	if err != nil {
		return ServerSolution{}, fmt.Errorf("availability: %s: %w", p.Name, err)
	}

	sol := ServerSolution{
		Params:    p,
		Tangible:  ss.NumTangible(),
		Vanishing: ss.NumVanishing(),
	}
	sol.ServiceUp, err = ss.Probability(pi, func(m srn.Marking) bool { return m.Tokens(pl.SvcUp) == 1 })
	if err != nil {
		return ServerSolution{}, err
	}
	sol.PatchDown, err = ss.Probability(pi, func(m srn.Marking) bool {
		return m.Tokens(pl.SvcReady) == 1 || m.Tokens(pl.SvcDone) == 1 || m.Tokens(pl.SvcReboot) == 1
	})
	if err != nil {
		return ServerSolution{}, err
	}
	sol.ReadyToReboot, err = ss.Probability(pi, func(m srn.Marking) bool {
		return m.Tokens(pl.SvcReboot) == 1 && m.Tokens(pl.OSUp) == 1 && m.Tokens(pl.HWUp) == 1
	})
	if err != nil {
		return ServerSolution{}, err
	}
	sol.FailureDown, err = ss.Probability(pi, func(m srn.Marking) bool {
		return m.Tokens(pl.SvcDown) == 1 || m.Tokens(pl.SvcFailed) == 1
	})
	if err != nil {
		return ServerSolution{}, err
	}
	sol.HardwareDown, err = ss.Probability(pi, func(m srn.Marking) bool {
		return m.Tokens(pl.HWDown) == 1
	})
	if err != nil {
		return ServerSolution{}, err
	}
	sol.OSDown, err = ss.Probability(pi, func(m srn.Marking) bool {
		return m.Tokens(pl.OSUp) == 0
	})
	if err != nil {
		return ServerSolution{}, err
	}
	return sol, nil
}

// AggregatedRates is the two-state abstraction of a server under patching,
// produced by the paper's aggregation method (Eq. 1 and Eq. 2).
type AggregatedRates struct {
	// LambdaEq is the equivalent patch (down-going) rate per hour:
	// lambda_eq = tau_p (Eq. 1).
	LambdaEq float64
	// MuEq is the equivalent recovery rate per hour:
	// mu_eq = beta_svc * p_prrb / p_pd (Eq. 2).
	MuEq float64
}

// MTTP returns the mean time to patch in hours (1/lambda_eq).
func (a AggregatedRates) MTTP() float64 { return 1 / a.LambdaEq }

// MTTR returns the mean time to recover from a patch in hours (1/mu_eq).
func (a AggregatedRates) MTTR() float64 { return 1 / a.MuEq }

// Aggregate applies Eq. 1 and Eq. 2 to a solved server model.
func Aggregate(sol ServerSolution) (AggregatedRates, error) {
	if sol.PatchDown <= 0 {
		return AggregatedRates{}, fmt.Errorf("availability: %s: patch-down probability %v not positive; is the patch pipeline reachable?", sol.Params.Name, sol.PatchDown)
	}
	return AggregatedRates{
		LambdaEq: rate(sol.Params.PatchInterval),
		MuEq:     rate(sol.Params.SvcReboot) * sol.ReadyToReboot / sol.PatchDown,
	}, nil
}
