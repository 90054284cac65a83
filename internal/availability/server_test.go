package availability_test

import (
	"testing"
	"time"

	"redpatch/internal/availability"
	"redpatch/internal/ctmc"
	"redpatch/internal/mathx"
	"redpatch/internal/oracle"
	"redpatch/internal/srn"
)

// paperServerParams returns the Table IV parameters of the four server
// types; the patch windows derive from the per-type critical counts
// (paperdata's TestServerParams pins the derivation).
func paperServerParams(name string) availability.ServerParams {
	p := availability.DefaultRates(name)
	switch name {
	case "dns":
		p.SvcPatchTime = 5 * time.Minute
		p.OSPatchTime = 20 * time.Minute
	case "web":
		p.SvcPatchTime = 10 * time.Minute
		p.OSPatchTime = 10 * time.Minute
	case "app":
		p.SvcPatchTime = 15 * time.Minute
		p.OSPatchTime = 30 * time.Minute
	case "db":
		p.SvcPatchTime = 10 * time.Minute
		p.OSPatchTime = 30 * time.Minute
	}
	return p
}

// TestServerSolveAllocations bounds what one solve of the DNS server's
// lower-layer model with the Table IV parameters allocates: building
// the net, generating its state space and solving the chain. The
// state-space generation allocates a key string and a marking only for
// a marking new to it (the markings cut from blocks) and reuses its
// firing scratch, where it used to allocate a marking per firing and a
// key per tangible outcome: 463 allocations at the time. Every scenario
// create solves four such models, and a sweep's first webalt design one.
func TestServerSolveAllocations(t *testing.T) {
	p := paperServerParams("dns")
	got := testing.AllocsPerRun(20, func() {
		if _, err := availability.SolveServer(p); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Table IV DNS server solve: %v allocs", got)
	if got > 300 {
		t.Errorf("Table IV DNS server solve = %v allocs, want at most 300", got)
	}
}

func TestValidateParams(t *testing.T) {
	p := paperServerParams("dns")
	if err := p.Validate(); err != nil {
		t.Errorf("paper params should validate: %v", err)
	}
	bad := p
	bad.HWMTBF = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero HWMTBF should fail")
	}
	bad = p
	bad.SvcPatchTime = -time.Minute
	if err := bad.Validate(); err == nil {
		t.Error("negative patch time should fail")
	}
}

func TestBuildServerSRNStructure(t *testing.T) {
	net, pl, err := availability.BuildServerSRN(paperServerParams("dns"))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatalf("net invalid: %v", err)
	}
	if got := len(net.Places()); got != 16 {
		t.Errorf("places = %d, want 16", got)
	}
	// 24 transitions: 2 hardware, 9 OS, 10 service, 3 clock.
	if got := len(net.Transitions()); got != 24 {
		t.Errorf("transitions = %d, want 24", got)
	}
	// The 20 guard functions of Table III map onto these transitions.
	guarded := 0
	for _, name := range []string{
		"Tosd", "Tosdrb", "Tosfup", "Tosptrig", "Tosp", "Tosrpd", "Tospd", "Tosprb",
		"Tsvcd", "Tsvcdrb", "Tsvcfup", "Tsvcptrig", "Tsvcp", "Tsvcrpd", "Tsvcrrb", "Tsvcrrbd", "Tsvcprb",
		"Tinterval", "Tpolicy", "Treset",
	} {
		if !hasTransition(t, name) {
			t.Errorf("missing transition %s", name)
			continue
		}
		guarded++
	}
	if guarded != 20 {
		t.Errorf("guarded transitions = %d, want 20", guarded)
	}
	if m0 := net.InitialMarking(); m0.Tokens(pl.HWUp) != 1 || m0.Tokens(pl.OSUp) != 1 || m0.Tokens(pl.SvcUp) != 1 || m0.Tokens(pl.Clock) != 1 {
		t.Error("initial marking should have one token in each up place and the clock")
	}
}

// TestDNSSolutionMatchesPaper pins the lower-layer solution against the
// probabilities the paper publishes for the DNS server in §III-D2:
// p_prrb ≈ 0.00011563 and p_pd ≈ 0.00092506, giving mu_eq ≈ 1.49992.
func TestDNSSolutionMatchesPaper(t *testing.T) {
	sol, err := availability.SolveServer(paperServerParams("dns"))
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(sol.ReadyToReboot, 0.00011563, 1e-4) {
		t.Errorf("p_prrb = %.8f, want ≈ 0.00011563", sol.ReadyToReboot)
	}
	if !mathx.AlmostEqual(sol.PatchDown, 0.00092506, 1e-4) {
		t.Errorf("p_pd = %.8f, want ≈ 0.00092506", sol.PatchDown)
	}
	agg, err := availability.Aggregate(sol)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(agg.LambdaEq, 1.0/720, 1e-12) {
		t.Errorf("lambda_eq = %v, want 1/720", agg.LambdaEq)
	}
	if !mathx.AlmostEqual(agg.MuEq, 1.49992, 1e-4) {
		t.Errorf("mu_eq = %.5f, want ≈ 1.49992", agg.MuEq)
	}
}

// TestTable5AggregatedRates pins the aggregation for all four server
// types against the paper's Table V.
func TestTable5AggregatedRates(t *testing.T) {
	tests := []struct {
		name     string
		wantMTTP float64 // hours
		wantMu   float64
		wantMTTR float64 // hours
	}{
		{name: "dns", wantMTTP: 720, wantMu: 1.49992, wantMTTR: 0.6667},
		{name: "web", wantMTTP: 720, wantMu: 1.71420, wantMTTR: 0.5834},
		{name: "app", wantMTTP: 720, wantMu: 0.99995, wantMTTR: 1.0001},
		{name: "db", wantMTTP: 720, wantMu: 1.09085, wantMTTR: 0.9167},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sol, err := availability.SolveServer(paperServerParams(tt.name))
			if err != nil {
				t.Fatal(err)
			}
			agg, err := availability.Aggregate(sol)
			if err != nil {
				t.Fatal(err)
			}
			if !mathx.AlmostEqual(agg.MTTP(), tt.wantMTTP, 1e-9) {
				t.Errorf("MTTP = %v, want %v", agg.MTTP(), tt.wantMTTP)
			}
			if !mathx.AlmostEqual(agg.MuEq, tt.wantMu, 1e-4) {
				t.Errorf("mu_eq = %.5f, want ≈ %.5f", agg.MuEq, tt.wantMu)
			}
			if !mathx.AlmostEqual(agg.MTTR(), tt.wantMTTR, 1e-4) {
				t.Errorf("MTTR = %.4f, want ≈ %.4f", agg.MTTR(), tt.wantMTTR)
			}
		})
	}
}

// TestMTTRDecomposition: the aggregated MTTR approximates the sum of the
// patch pipeline stages (service patch + OS patch + OS reboot + service
// restart), since failures during the short window are rare.
func TestMTTRDecomposition(t *testing.T) {
	p := paperServerParams("web")
	sol, err := availability.SolveServer(p)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := availability.Aggregate(sol)
	if err != nil {
		t.Fatal(err)
	}
	pipeline := (p.SvcPatchTime + p.OSPatchTime + p.OSReboot + p.SvcReboot).Hours()
	if !mathx.AlmostEqual(agg.MTTR(), pipeline, 2e-3) {
		t.Errorf("MTTR = %v, want ≈ pipeline duration %v", agg.MTTR(), pipeline)
	}
}

func TestServerStateSpaceIsSmallAndStable(t *testing.T) {
	sol, err := availability.SolveServer(paperServerParams("db"))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Tangible != 27 {
		t.Errorf("tangible states = %d, want 27", sol.Tangible)
	}
	if sol.Vanishing == 0 {
		t.Error("expected vanishing markings to be eliminated")
	}
}

func TestServiceUpDominates(t *testing.T) {
	sol, err := availability.SolveServer(paperServerParams("app"))
	if err != nil {
		t.Fatal(err)
	}
	if sol.ServiceUp < 0.99 {
		t.Errorf("service availability = %v, implausibly low", sol.ServiceUp)
	}
	total := sol.ServiceUp + sol.PatchDown + sol.FailureDown
	if !mathx.AlmostEqual(total, 1, 1e-9) {
		t.Errorf("up + patch-down + failure-down = %v, want 1", total)
	}
}

// TestPatchPipelineOrdering verifies the paper's patch sequence on the
// reachability graph: from the tangible marking where the service is
// ready to patch, the pipeline passes through service-patched, OS-ready,
// OS-patched and ready-to-reboot markings before returning to up.
func TestPatchPipelineOrdering(t *testing.T) {
	net, pl, err := availability.BuildServerSRN(paperServerParams("dns"))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := net.Generate(srn.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sawSvcReady, sawSvcDoneOSReady, sawOSReboot, sawSvcReboot bool
	for _, m := range ss.Markings() {
		if m.Tokens(pl.SvcReady) == 1 && m.Tokens(pl.OSUp) == 1 {
			sawSvcReady = true
		}
		if m.Tokens(pl.SvcDone) == 1 && m.Tokens(pl.OSReady) == 1 {
			sawSvcDoneOSReady = true
		}
		if m.Tokens(pl.SvcReboot) == 1 && m.Tokens(pl.OSDone) == 1 {
			sawOSReboot = true
		}
		if m.Tokens(pl.SvcReboot) == 1 && m.Tokens(pl.OSUp) == 1 {
			sawSvcReboot = true
		}
		if m.Tokens(pl.SvcDone) == 1 && m.Tokens(pl.OSUp) == 1 {
			t.Errorf("tangible marking with service patched but OS still up: the OS patch trigger should fire immediately (%s)", net.MarkingString(m))
		}
	}
	if !sawSvcReady || !sawSvcDoneOSReady || !sawOSReboot || !sawSvcReboot {
		t.Errorf("patch pipeline stages missing: svcReady=%v svcDoneOSReady=%v osReboot=%v svcReboot=%v",
			sawSvcReady, sawSvcDoneOSReady, sawOSReboot, sawSvcReboot)
	}
}

// TestServerModelConservation: the server SRN conserves exactly four
// tokens — one each for the hardware, OS, service and patch-clock
// sub-models — and every reachable marking honours the conservation laws.
func TestServerModelConservation(t *testing.T) {
	net, _, err := availability.BuildServerSRN(paperServerParams("dns"))
	if err != nil {
		t.Fatal(err)
	}
	inv := oracle.PlaceInvariants(net)
	if len(inv) != 4 {
		t.Fatalf("place invariants = %d, want 4 (hw, os, svc, clock)", len(inv))
	}
	ss, err := net.Generate(srn.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := oracle.CheckConservation(net, ss); err != nil {
		t.Errorf("conservation violated: %v", err)
	}
}

// TestNoDeadlock: every tangible marking must have at least one enabled
// timed transition (the model is ergodic; a deadlock would trap the
// token).
func TestNoDeadlock(t *testing.T) {
	net, _, err := availability.BuildServerSRN(paperServerParams("web"))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := net.Generate(srn.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ss.Markings() {
		leaves := false
		for _, tr := range net.Transitions() {
			if rate, ok := net.TimedRate(tr, m); ok && rate > 0 && net.MarkingString(net.Fire(tr, m)) != net.MarkingString(m) {
				leaves = true
				break
			}
		}
		if !leaves {
			t.Errorf("tangible state %d (%s) is absorbing", i, net.MarkingString(m))
		}
	}
	// Ergodicity: the steady state must exist and put mass on the up
	// state.
	pi, err := ss.SteadyState(ctmc.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pi {
		if p < 0 || p > 1 {
			t.Errorf("pi[%d] = %v outside [0,1]", i, p)
		}
	}
}

func TestZeroPatchWindowClamped(t *testing.T) {
	p := paperServerParams("dns")
	p.SvcPatchTime = 0 // nothing to patch in the service layer
	sol, err := availability.SolveServer(p)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := availability.Aggregate(sol)
	if err != nil {
		t.Fatal(err)
	}
	// Pipeline reduces to ~OS patch + reboots; MTTR ≈ 35 min = 0.5836 h.
	want := (20*time.Minute + 10*time.Minute + 5*time.Minute + time.Second).Hours()
	if !mathx.AlmostEqual(agg.MTTR(), want, 2e-3) {
		t.Errorf("MTTR = %v, want ≈ %v", agg.MTTR(), want)
	}
}

// TestFasterPatchingImprovesAvailability is a sanity ablation: halving
// the patch windows must raise the aggregated availability.
func TestFasterPatchingImprovesAvailability(t *testing.T) {
	slow := paperServerParams("app")
	fast := slow
	fast.SvcPatchTime /= 2
	fast.OSPatchTime /= 2
	solSlow, err := availability.SolveServer(slow)
	if err != nil {
		t.Fatal(err)
	}
	solFast, err := availability.SolveServer(fast)
	if err != nil {
		t.Fatal(err)
	}
	aggSlow, err := availability.Aggregate(solSlow)
	if err != nil {
		t.Fatal(err)
	}
	aggFast, err := availability.Aggregate(solFast)
	if err != nil {
		t.Fatal(err)
	}
	avail := func(a availability.AggregatedRates) float64 { return a.MuEq / (a.LambdaEq + a.MuEq) }
	if avail(aggFast) <= avail(aggSlow) {
		t.Errorf("faster patching should raise availability: %v vs %v",
			avail(aggFast), avail(aggSlow))
	}
}

func TestAggregateRejectsUnsolvedPipeline(t *testing.T) {
	if _, err := availability.Aggregate(availability.ServerSolution{Params: paperServerParams("dns")}); err == nil {
		t.Error("Aggregate with zero patch-down probability should fail")
	}
}

// hasTransition reports whether the paper's DNS server SRN has a
// transition of the given name, probing a fresh build of the net: srn
// refuses a second transition of a name it already holds.
func hasTransition(t *testing.T, name string) (found bool) {
	t.Helper()
	net, _, err := availability.BuildServerSRN(paperServerParams("dns"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { found = recover() != nil }()
	net.AddImmediateTransition(name)
	return false
}
