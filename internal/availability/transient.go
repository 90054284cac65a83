package availability

import (
	"fmt"
	"sort"

	"redpatch/internal/srn"
)

// PatchWindowPoint is one sample of the patch-window transient: the
// probability that the service is up at a given time after the patch
// trigger fires.
type PatchWindowPoint struct {
	// Hours since the patch round was triggered.
	Hours float64
	// ServiceUp is P(service up at that instant).
	ServiceUp float64
	// PatchDown is P(service inside the patch pipeline at that instant).
	PatchDown float64
}

// PatchWindowTransient computes the service-availability trajectory of a
// server through a patch window: the underlying CTMC starts in the
// marking "everything up, patch just triggered" and the returned points
// sample P(service up) and P(in patch pipeline) at the requested times
// (hours). Times are processed in ascending order and reported that way.
func PatchWindowTransient(p ServerParams, times []float64) ([]PatchWindowPoint, error) {
	if len(times) == 0 {
		return nil, fmt.Errorf("availability: no sample times")
	}
	for _, t := range times {
		if t < 0 {
			return nil, fmt.Errorf("availability: negative sample time %v", t)
		}
	}
	net, pl, err := BuildServerSRN(p)
	if err != nil {
		return nil, err
	}
	ss, err := net.Generate(srn.GenerateOptions{})
	if err != nil {
		return nil, err
	}
	// The triggered state: everything up, clock token in Ptrigger. That
	// marking is vanishing (Tsvcptrig fires immediately), so start from
	// its tangible successor: service ready to patch.
	start := net.InitialMarking()
	start[indexOfPlace(net, "Pclock")] = 0
	start[indexOfPlace(net, "Ptrigger")] = 1
	start[indexOfPlace(net, "Psvcup")] = 0
	start[indexOfPlace(net, "Psvcrp")] = 1
	state, ok := ss.StateOf(start)
	if !ok {
		return nil, fmt.Errorf("availability: triggered marking not reachable; model changed?")
	}
	p0 := make([]float64, ss.NumTangible())
	p0[state] = 1

	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	out := make([]PatchWindowPoint, 0, len(sorted))
	for _, t := range sorted {
		pt, err := ss.Chain().Transient(p0, t)
		if err != nil {
			return nil, err
		}
		up, err := ss.Probability(pt, func(m srn.Marking) bool { return m.Tokens(pl.SvcUp) == 1 })
		if err != nil {
			return nil, err
		}
		pd, err := ss.Probability(pt, func(m srn.Marking) bool {
			return m.Tokens(pl.SvcReady) == 1 || m.Tokens(pl.SvcDone) == 1 || m.Tokens(pl.SvcReboot) == 1
		})
		if err != nil {
			return nil, err
		}
		out = append(out, PatchWindowPoint{Hours: t, ServiceUp: up, PatchDown: pd})
	}
	return out, nil
}

func indexOfPlace(net *srn.Net, name string) int {
	for i, p := range net.Places() {
		if p.Name() == name {
			return i
		}
	}
	panic("availability: place " + name + " missing")
}

// TransientCOA returns the network's expected COA at time t, starting
// from the all-up state — the availability trajectory as patch rounds
// begin to arrive. It converges to the steady-state COA as t grows.
func TransientCOA(nm NetworkModel, t float64) (float64, error) {
	net, ups, err := BuildNetworkSRN(nm)
	if err != nil {
		return 0, err
	}
	ss, err := net.Generate(srn.GenerateOptions{})
	if err != nil {
		return 0, err
	}
	return ss.TransientReward(COAReward(nm, ups), t)
}
