package sim

import (
	"errors"
	"math"
	"testing"

	"redpatch/internal/availability"
	"redpatch/internal/srn"
)

func upDownNet(t *testing.T, lambda, mu float64) (*srn.Net, *srn.Place) {
	t.Helper()
	n := srn.New("updown")
	up := n.AddPlace("up", 1)
	down := n.AddPlace("down", 0)
	n.AddTimedTransition("Tfail", lambda).From(up).To(down)
	n.AddTimedTransition("Trepair", mu).From(down).To(up)
	return n, up
}

func TestEstimateMatchesClosedForm(t *testing.T) {
	const lambda, mu = 0.5, 2.0
	net, up := upDownNet(t, lambda, mu)
	est, err := EstimateReward(net,
		func(m srn.Marking) float64 { return float64(m.Tokens(up)) },
		Options{Horizon: 2000, Batches: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	want := mu / (lambda + mu)
	if math.Abs(est.Mean-want) > 0.01 {
		t.Errorf("estimate = %v, want ≈ %v", est.Mean, want)
	}
	if !est.Contains(want) && math.Abs(est.Mean-want) > 3*est.StdErr {
		t.Errorf("closed form %v outside CI [%v, %v]", want, est.Lo95, est.Hi95)
	}
	if est.Events == 0 {
		t.Error("simulation should fire events")
	}
}

func TestEstimateIsReproducible(t *testing.T) {
	net, up := upDownNet(t, 0.5, 2.0)
	reward := func(m srn.Marking) float64 { return float64(m.Tokens(up)) }
	a, err := EstimateReward(net, reward, Options{Horizon: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateReward(net, reward, Options{Horizon: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean != b.Mean || a.Events != b.Events {
		t.Error("same seed must reproduce the run")
	}
	c, err := EstimateReward(net, reward, Options{Horizon: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Mean == c.Mean {
		t.Error("different seeds should (almost surely) differ")
	}
}

func TestImmediateBranchingWeights(t *testing.T) {
	// A vanishing marking enables one immediate transition into branch a
	// and three into branch b, a 1:3 split; occupancy of the two branches
	// must reflect it.
	n := srn.New("weights")
	src := n.AddPlace("src", 1)
	mid := n.AddPlace("mid", 0)
	a := n.AddPlace("a", 0)
	b := n.AddPlace("b", 0)
	n.AddTimedTransition("Tgo", 1).From(src).To(mid)
	n.AddImmediateTransition("TtoA").From(mid).To(a)
	for _, name := range []string{"TtoB1", "TtoB2", "TtoB3"} {
		n.AddImmediateTransition(name).From(mid).To(b)
	}
	n.AddTimedTransition("TbackA", 1).From(a).To(src)
	n.AddTimedTransition("TbackB", 1).From(b).To(src)

	estA, err := EstimateReward(n,
		func(m srn.Marking) float64 { return float64(m.Tokens(a)) },
		Options{Horizon: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	estB, err := EstimateReward(n,
		func(m srn.Marking) float64 { return float64(m.Tokens(b)) },
		Options{Horizon: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ratio := estB.Mean / estA.Mean
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("occupancy ratio = %v, want ≈ 3", ratio)
	}
}

func TestDeadlockDetected(t *testing.T) {
	n := srn.New("dead")
	a := n.AddPlace("a", 1)
	b := n.AddPlace("b", 0)
	n.AddTimedTransition("Tgo", 1).From(a).To(b) // b has no way out
	_, err := EstimateReward(n, func(srn.Marking) float64 { return 0 },
		Options{Horizon: 10, Seed: 1})
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("expected ErrDeadlock, got %v", err)
	}
}

func TestImmediateLoopDetected(t *testing.T) {
	n := srn.New("loop")
	a := n.AddPlace("a", 1)
	b := n.AddPlace("b", 0)
	n.AddImmediateTransition("Tab").From(a).To(b)
	n.AddImmediateTransition("Tba").From(b).To(a)
	// A timed transition so validation passes and the run starts.
	clock := n.AddPlace("clock", 1)
	n.AddTimedTransition("Tc", 1).From(clock).To(clock)
	_, err := EstimateReward(n, func(srn.Marking) float64 { return 0 },
		Options{Horizon: 10, Seed: 1, MaxImmediateChain: 50})
	if !errors.Is(err, ErrImmediateLoop) {
		t.Errorf("expected ErrImmediateLoop, got %v", err)
	}
}

func TestOptionValidation(t *testing.T) {
	net, _ := upDownNet(t, 1, 1)
	reward := func(srn.Marking) float64 { return 0 }
	if _, err := EstimateReward(net, reward, Options{}); err == nil {
		t.Error("zero horizon should fail")
	}
	if _, err := EstimateReward(net, reward, Options{Horizon: 10, Batches: 1}); err == nil {
		t.Error("single batch should fail")
	}
	if _, err := EstimateReward(net, reward, Options{Horizon: 10, Warmup: -1}); err == nil {
		t.Error("negative warmup should fail")
	}
}

func TestEventCap(t *testing.T) {
	net, _ := upDownNet(t, 100, 100)
	_, err := EstimateReward(net, func(srn.Marking) float64 { return 0 },
		Options{Horizon: 1e6, Seed: 1, MaxEvents: 1000})
	if err == nil {
		t.Error("event cap should trip on a long busy run")
	}
}

// TestNetworkCOAAgainstAnalytic cross-validates the paper's upper-layer
// availability model: the simulated COA of the base network must agree
// with the analytic 0.99707 within the confidence interval.
func TestNetworkCOAAgainstAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo cross-validation skipped in -short mode")
	}
	nm := availability.NetworkModel{Tiers: []availability.Tier{
		{Name: "dns", N: 1, LambdaEq: 1.0 / 720, MuEq: 1.49992},
		{Name: "web", N: 2, LambdaEq: 1.0 / 720, MuEq: 1.71420},
		{Name: "app", N: 2, LambdaEq: 1.0 / 720, MuEq: 0.99995},
		{Name: "db", N: 1, LambdaEq: 1.0 / 720, MuEq: 1.09085},
	}}
	net, ups, err := availability.BuildNetworkSRN(nm)
	if err != nil {
		t.Fatal(err)
	}
	reward := availability.COAReward(nm, ups)
	// 60 batches x 20000 h: patches are rare events (1/720 h per server),
	// so the horizon must cover many thousands of cycles.
	est, err := EstimateReward(net, reward, Options{Horizon: 20000, Batches: 60, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	analytic, err := availability.SolveNetworkSRN(nm)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-analytic.COA) > 4*est.StdErr+1e-4 {
		t.Errorf("simulated COA %v too far from analytic %v (stderr %v)", est.Mean, analytic.COA, est.StdErr)
	}
}

// TestServerModelAgainstAnalytic cross-validates the lower-layer server
// SRN: simulated service availability must match the analytic solution.
func TestServerModelAgainstAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo cross-validation skipped in -short mode")
	}
	p := availability.DefaultRates("dns")
	p.SvcPatchTime = 5 * 60 * 1e9 // 5 minutes in time.Duration units
	p.OSPatchTime = 20 * 60 * 1e9 // 20 minutes
	sol, err := availability.SolveServer(p)
	if err != nil {
		t.Fatal(err)
	}
	net, pl, err := availability.BuildServerSRN(p)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateReward(net,
		func(m srn.Marking) float64 { return float64(m.Tokens(pl.SvcUp)) },
		Options{Horizon: 50000, Batches: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Mean-sol.ServiceUp) > 4*est.StdErr+5e-4 {
		t.Errorf("simulated availability %v too far from analytic %v (stderr %v)",
			est.Mean, sol.ServiceUp, est.StdErr)
	}
}
