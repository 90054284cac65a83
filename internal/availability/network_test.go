package availability_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redpatch/internal/availability"
	"redpatch/internal/mathx"
	"redpatch/internal/oracle"
	"redpatch/internal/srn"
)

// paperTiers returns the aggregated tiers of the example network using
// the Table V rates computed by the lower-layer model.
func paperTiers(t *testing.T, counts map[string]int) availability.NetworkModel {
	t.Helper()
	var nm availability.NetworkModel
	for _, name := range []string{"dns", "web", "app", "db"} {
		n, ok := counts[name]
		if !ok {
			continue
		}
		sol, err := availability.SolveServer(paperServerParams(name))
		if err != nil {
			t.Fatal(err)
		}
		agg, err := availability.Aggregate(sol)
		if err != nil {
			t.Fatal(err)
		}
		nm.Tiers = append(nm.Tiers, availability.Tier{Name: name, N: n, LambdaEq: agg.LambdaEq, MuEq: agg.MuEq})
	}
	return nm
}

var baseCounts = map[string]int{"dns": 1, "web": 2, "app": 2, "db": 1}

// TestTable6COA pins the paper's headline availability number: COA of the
// base network ≈ 0.99707.
func TestTable6COA(t *testing.T) {
	nm := paperTiers(t, baseCounts)
	sol, err := solveFactored(nm)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(sol.COA, 0.99707, 1e-4) {
		t.Errorf("COA = %.6f, want ≈ 0.99707", sol.COA)
	}
	if sol.States != 36 {
		t.Errorf("states = %d, want 36 (2*3*3*2)", sol.States)
	}
	if sol.ServiceAvailability <= sol.COA {
		t.Error("service availability should exceed COA (partial capacity counts against COA only)")
	}
}

// TestStateCountsAtScale: n replicas in each of the four tiers span
// (n+1)^4 upper-layer states. The factored path reports that count
// without generating the chain, says it was factored, and still gives
// a proper COA at 257^4 states, far above redpatchd's replica cap; the
// SRN oracle generates exactly that many states.
func TestStateCountsAtScale(t *testing.T) {
	for _, n := range []int{2, 4, 8, 32, 256} {
		nm := paperTiers(t, map[string]int{"dns": n, "web": n, "app": n, "db": n})
		want := (n + 1) * (n + 1) * (n + 1) * (n + 1)
		sol, err := solveFactored(nm)
		if err != nil {
			t.Fatal(err)
		}
		if sol.States != want || !sol.Factored {
			t.Errorf("replicas=%d: factored states %d (factored %v), want %d (true)", n, sol.States, sol.Factored, want)
		}
		if sol.COA <= 0 || sol.COA >= 1 {
			t.Errorf("replicas=%d: implausible COA %v", n, sol.COA)
		}
		if n > 4 {
			continue // the generated chain at n=8 allocates about 56 MB
		}
		srn, err := oracle.SolveNetworkSRN(nm)
		if err != nil {
			t.Fatal(err)
		}
		if srn.States != want {
			t.Errorf("replicas=%d: SRN oracle states %d, want %d", n, srn.States, want)
		}
	}
}

// TestFiveDesignCOAs pins the five designs of §IV to the values our
// pipeline computes (all within the paper's Fig. 6 axis range
// [0.9955, 0.9964]) and checks the orderings the paper reports.
func TestFiveDesignCOAs(t *testing.T) {
	designs := []struct {
		name   string
		counts map[string]int
		want   float64
	}{
		{name: "D1", counts: map[string]int{"dns": 1, "web": 1, "app": 1, "db": 1}, want: 0.995614},
		{name: "D2", counts: map[string]int{"dns": 2, "web": 1, "app": 1, "db": 1}, want: 0.996166},
		{name: "D3", counts: map[string]int{"dns": 1, "web": 2, "app": 1, "db": 1}, want: 0.996097},
		{name: "D4", counts: map[string]int{"dns": 1, "web": 1, "app": 2, "db": 1}, want: 0.996442},
		{name: "D5", counts: map[string]int{"dns": 1, "web": 1, "app": 1, "db": 2}, want: 0.996373},
	}
	coa := make(map[string]float64, len(designs))
	for _, d := range designs {
		nm := paperTiers(t, d.counts)
		sol, err := solveFactored(nm)
		if err != nil {
			t.Fatal(err)
		}
		coa[d.name] = sol.COA
		if !mathx.AlmostEqual(sol.COA, d.want, 1e-4) {
			t.Errorf("%s COA = %.6f, want ≈ %.6f", d.name, sol.COA, d.want)
		}
		if sol.COA < 0.9955 || sol.COA > 0.9965 {
			t.Errorf("%s COA = %.6f outside the paper's Fig. 6 range", d.name, sol.COA)
		}
	}
	// Paper §IV-A: the fourth design (redundant app tier — the slowest
	// recovery) gains the most COA; every redundant design beats D1.
	if !(coa["D4"] > coa["D5"] && coa["D5"] > coa["D2"] && coa["D2"] > coa["D3"] && coa["D3"] > coa["D1"]) {
		t.Errorf("COA ordering wrong: %+v", coa)
	}
}

// TestClosedFormMatchesSRN cross-validates the factored closed form
// against the generated SRN on the paper's designs.
func TestClosedFormMatchesSRN(t *testing.T) {
	for _, counts := range []map[string]int{
		baseCounts,
		{"dns": 1, "web": 1, "app": 1, "db": 1},
		{"dns": 1, "web": 3, "app": 2, "db": 2},
	} {
		nm := paperTiers(t, counts)
		sol, err := solveFactored(nm)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := oracle.SolveNetworkSRN(nm)
		if err != nil {
			t.Fatal(err)
		}
		if !mathx.AlmostEqual(sol.COA, ref.COA, 1e-9) {
			t.Errorf("factored COA %.9f != SRN %.9f for %v", sol.COA, ref.COA, counts)
		}
	}
}

// TestClosedFormMatchesSRNRandom extends the cross-validation to random
// tier configurations.
func TestClosedFormMatchesSRNRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nTiers := 1 + rng.Intn(3)
		var nm availability.NetworkModel
		for i := 0; i < nTiers; i++ {
			nm.Tiers = append(nm.Tiers, availability.Tier{
				Name:     "t" + string(rune('0'+i)),
				N:        1 + rng.Intn(3),
				LambdaEq: rng.Float64() * 0.05,
				MuEq:     0.5 + rng.Float64()*2,
			})
		}
		sol, err := solveFactored(nm)
		if err != nil {
			return false
		}
		ref, err := oracle.SolveNetworkSRN(nm)
		if err != nil {
			return false
		}
		return mathx.AlmostEqual(sol.COA, ref.COA, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTierValidation(t *testing.T) {
	tests := []struct {
		name    string
		tier    availability.Tier
		wantErr bool
	}{
		{name: "ok", tier: availability.Tier{Name: "web", N: 2, LambdaEq: 0.001, MuEq: 1}, wantErr: false},
		{name: "noName", tier: availability.Tier{N: 1}, wantErr: true},
		{name: "zeroN", tier: availability.Tier{Name: "x"}, wantErr: true},
		{name: "negLambda", tier: availability.Tier{Name: "x", N: 1, LambdaEq: -1}, wantErr: true},
		{name: "patchNoRecovery", tier: availability.Tier{Name: "x", N: 1, LambdaEq: 1}, wantErr: true},
		{name: "neverPatches", tier: availability.Tier{Name: "x", N: 1}, wantErr: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.tier.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestNetworkModelValidation(t *testing.T) {
	if err := (availability.NetworkModel{}).Validate(); err == nil {
		t.Error("empty model should fail")
	}
	dup := availability.NetworkModel{Tiers: []availability.Tier{
		{Name: "a", N: 1}, {Name: "a", N: 1},
	}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate tier should fail")
	}
}

func TestNeverPatchingTierIsAlwaysUp(t *testing.T) {
	nm := availability.NetworkModel{Tiers: []availability.Tier{
		{Name: "static", N: 2},
		{Name: "patchy", N: 1, LambdaEq: 1.0 / 720, MuEq: 1.5},
	}}
	sol, err := solveFactored(nm)
	if err != nil {
		t.Fatal(err)
	}
	factors, err := tierFactors(nm)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(factors[0].PMF[factors[0].N()], 1, 1e-12) {
		t.Errorf("non-patching tier availability = %v, want 1", factors[0].PMF[factors[0].N()])
	}
	// COA = (2 + a)/3 weighted: with a = mu/(lambda+mu).
	a := 1.5 / (1.5 + 1.0/720)
	want := a*1 + (1-a)*0 // reward 0 when the single patchy server is down
	if !mathx.AlmostEqual(sol.COA, want, 1e-9) {
		t.Errorf("COA = %v, want %v", sol.COA, want)
	}
}

func TestCOARewardGeneralizesTable6(t *testing.T) {
	// Reconstruct the Table VI reward rows for the base network.
	nm := paperTiers(t, baseCounts)
	net, ups, err := oracle.BuildNetworkSRN(nm)
	if err != nil {
		t.Fatal(err)
	}
	reward := oracle.COAReward(nm, ups)
	marking := net.InitialMarking()
	if got := reward(marking); got != 1 {
		t.Errorf("all-up reward = %v, want 1", got)
	}
	// One web down: 5/6.
	m := net.InitialMarking()
	m[indexOf(t, net, ups[1])] = 1
	if got := reward(m); !mathx.AlmostEqual(got, 5.0/6, 1e-12) {
		t.Errorf("one web down reward = %v, want 5/6", got)
	}
	// One web and one app down: 4/6.
	m[indexOf(t, net, ups[2])] = 1
	if got := reward(m); !mathx.AlmostEqual(got, 4.0/6, 1e-12) {
		t.Errorf("one web + one app down reward = %v, want 4/6", got)
	}
	// DNS down: 0 regardless of capacity elsewhere.
	m = net.InitialMarking()
	m[indexOf(t, net, ups[0])] = 0
	if got := reward(m); got != 0 {
		t.Errorf("dns down reward = %v, want 0", got)
	}
}

// indexOf returns the marking index of a place of net.
func indexOf(t *testing.T, net *srn.Net, place *srn.Place) int {
	t.Helper()
	for i, p := range net.Places() {
		if p == place {
			return i
		}
	}
	t.Fatal("place not in net")
	return -1
}

// TestExtremeRateRatios guards numerical robustness: rates spanning nine
// orders of magnitude must still produce a valid distribution.
func TestExtremeRateRatios(t *testing.T) {
	nm := availability.NetworkModel{Tiers: []availability.Tier{
		{Name: "fast", N: 2, LambdaEq: 1e3, MuEq: 1e6},
		{Name: "slow", N: 1, LambdaEq: 1e-3, MuEq: 1e-1},
	}}
	sol, err := solveFactored(nm)
	if err != nil {
		t.Fatal(err)
	}
	if sol.COA < 0 || sol.COA > 1 {
		t.Errorf("COA = %v outside [0,1]", sol.COA)
	}
	ref, err := oracle.SolveNetworkSRN(nm)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(sol.COA, ref.COA, 1e-6) {
		t.Errorf("factored %v vs SRN %v under extreme rates", sol.COA, ref.COA)
	}
}

// TestQuorum exercises the k-out-of-n generalization of the Table VI
// reward: a two-server database cluster that needs both replicas.
func TestQuorum(t *testing.T) {
	tiers := []availability.Tier{
		{Name: "web", N: 2, LambdaEq: 1.0 / 720, MuEq: 1.71420},
		{Name: "db", N: 2, LambdaEq: 1.0 / 720, MuEq: 1.09085},
	}
	loose := availability.NetworkModel{Tiers: tiers}
	strict := availability.NetworkModel{Tiers: tiers, Quorum: map[string]int{"db": 2}}

	lSol, err := solveFactored(loose)
	if err != nil {
		t.Fatal(err)
	}
	sSol, err := solveFactored(strict)
	if err != nil {
		t.Fatal(err)
	}
	if sSol.COA >= lSol.COA {
		t.Errorf("a 2-of-2 quorum must cost COA: %v vs %v", sSol.COA, lSol.COA)
	}
	if sSol.ServiceAvailability >= lSol.ServiceAvailability {
		t.Errorf("quorum must cost service availability: %v vs %v",
			sSol.ServiceAvailability, lSol.ServiceAvailability)
	}
	// The factored solve agrees with the SRN under quorums too.
	ref, err := oracle.SolveNetworkSRN(strict)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(sSol.COA, ref.COA, 1e-9) {
		t.Errorf("quorum factored %.9f != SRN %.9f", sSol.COA, ref.COA)
	}
	// Reward spot check: one db down zeroes the reward under the quorum.
	net, ups, err := oracle.BuildNetworkSRN(strict)
	if err != nil {
		t.Fatal(err)
	}
	reward := oracle.COAReward(strict, ups)
	m := net.InitialMarking()
	m[indexOf(t, net, ups[1])] = 1
	if got := reward(m); got != 0 {
		t.Errorf("reward with quorum broken = %v, want 0", got)
	}
}

func TestQuorumValidation(t *testing.T) {
	tiers := []availability.Tier{{Name: "db", N: 2, LambdaEq: 0.001, MuEq: 1}}
	tests := []struct {
		name   string
		quorum map[string]int
		ok     bool
	}{
		{name: "valid", quorum: map[string]int{"db": 2}, ok: true},
		{name: "unknownGroup", quorum: map[string]int{"ghost": 1}, ok: false},
		{name: "tooLarge", quorum: map[string]int{"db": 3}, ok: false},
		{name: "zero", quorum: map[string]int{"db": 0}, ok: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			nm := availability.NetworkModel{Tiers: tiers, Quorum: tt.quorum}
			if err := nm.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate err = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

// TestRedundancyGain verifies the quantitative form of §IV-C observation
// 1: starting from one server per tier, an extra server on the
// application tier (slowest patch recovery) raises COA the most, and an
// extra server on any tier raises it.
func TestRedundancyGain(t *testing.T) {
	single := map[string]int{"dns": 1, "web": 1, "app": 1, "db": 1}
	base, err := solveFactored(paperTiers(t, single))
	if err != nil {
		t.Fatal(err)
	}
	gains := make(map[string]float64, len(single))
	for tier := range single {
		counts := map[string]int{"dns": 1, "web": 1, "app": 1, "db": 1}
		counts[tier]++
		sol, err := solveFactored(paperTiers(t, counts))
		if err != nil {
			t.Fatal(err)
		}
		gains[tier] = sol.COA - base.COA
	}
	for _, other := range []string{"dns", "web", "db"} {
		if gains["app"] <= gains[other] {
			t.Errorf("gain(app)=%v should exceed gain(%s)=%v", gains["app"], other, gains[other])
		}
	}
	for name, g := range gains {
		if g <= 0 {
			t.Errorf("gain(%s) = %v, want positive", name, g)
		}
	}
}

func TestDowntimeDecomposition(t *testing.T) {
	sol, err := availability.SolveServer(paperServerParams("dns"))
	if err != nil {
		t.Fatal(err)
	}
	// The DNS server's downtime is dominated by the patch pipeline: the
	// OS fails every 1440 h (1 h repair) and the service every 336 h
	// (0.5 h repair), versus 0.667 h of patching every 720 h.
	if share := sol.PatchDown / (sol.PatchDown + sol.FailureDown); share < 0.2 || share > 0.5 {
		t.Errorf("patch downtime share = %v, expected a substantial minority share", share)
	}
	if sol.HardwareDown <= 0 || sol.HardwareDown > 1e-4 {
		t.Errorf("P(hw down) = %v, expected tiny but positive", sol.HardwareDown)
	}
	if sol.OSDown <= sol.HardwareDown {
		t.Errorf("P(os not up) = %v should exceed P(hw down) = %v (os fails more often and patches)",
			sol.OSDown, sol.HardwareDown)
	}
}

// TestHeterogeneousGroups models the paper's §V heterogeneous-redundancy
// extension: two web servers with different stacks (different patch
// windows) forming one logical tier.
func TestHeterogeneousGroups(t *testing.T) {
	hetero := availability.NetworkModel{Tiers: []availability.Tier{
		{Name: "webA", Group: "web", N: 1, LambdaEq: 1.0 / 720, MuEq: 1.71420},
		{Name: "webB", Group: "web", N: 1, LambdaEq: 1.0 / 720, MuEq: 2.0},
		{Name: "db", N: 1, LambdaEq: 1.0 / 720, MuEq: 1.09085},
	}}
	sol, err := solveFactored(hetero)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oracle.SolveNetworkSRN(hetero)
	if err != nil {
		t.Fatal(err)
	}
	if !mathx.AlmostEqual(sol.COA, ref.COA, 1e-9) {
		t.Errorf("factored COA %.9f != SRN %.9f", sol.COA, ref.COA)
	}
	// Sanity: the grouped pair must beat a single webA server (redundancy
	// helps) and the COA must exceed the service availability would-be
	// product of any single chain.
	single := availability.NetworkModel{Tiers: []availability.Tier{
		{Name: "webA", N: 1, LambdaEq: 1.0 / 720, MuEq: 1.71420},
		{Name: "db", N: 1, LambdaEq: 1.0 / 720, MuEq: 1.09085},
	}}
	sSol, err := solveFactored(single)
	if err != nil {
		t.Fatal(err)
	}
	if sol.ServiceAvailability <= sSol.ServiceAvailability {
		t.Errorf("heterogeneous redundancy should raise service availability: %v vs %v",
			sol.ServiceAvailability, sSol.ServiceAvailability)
	}
	// The grouped reward must treat one-of-two web servers down as
	// degraded capacity, not an outage.
	net, ups, err := oracle.BuildNetworkSRN(hetero)
	if err != nil {
		t.Fatal(err)
	}
	reward := oracle.COAReward(hetero, ups)
	m := net.InitialMarking()
	if got := reward(m); !mathx.AlmostEqual(got, 1, 1e-12) {
		t.Errorf("all-up reward = %v", got)
	}
	m[indexOf(t, net, ups[0])] = 0
	if got := reward(m); !mathx.AlmostEqual(got, 2.0/3, 1e-12) {
		t.Errorf("one web down reward = %v, want 2/3 (capacity loss, not outage)", got)
	}
	m[indexOf(t, net, ups[1])] = 0
	if got := reward(m); got != 0 {
		t.Errorf("whole web group down reward = %v, want 0", got)
	}
}

func TestGroupedClosedFormMatchesSRNRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var nm availability.NetworkModel
		nGroups := 1 + rng.Intn(2)
		id := 0
		for g := 0; g < nGroups; g++ {
			members := 1 + rng.Intn(2)
			for m := 0; m < members; m++ {
				nm.Tiers = append(nm.Tiers, availability.Tier{
					Name:     "t" + string(rune('0'+id)),
					Group:    "g" + string(rune('0'+g)),
					N:        1 + rng.Intn(2),
					LambdaEq: rng.Float64() * 0.05,
					MuEq:     0.5 + rng.Float64()*2,
				})
				id++
			}
		}
		sol, err := solveFactored(nm)
		if err != nil {
			return false
		}
		ref, err := oracle.SolveNetworkSRN(nm)
		if err != nil {
			return false
		}
		return mathx.AlmostEqual(sol.COA, ref.COA, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
