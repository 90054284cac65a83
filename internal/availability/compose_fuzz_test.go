package availability_test

import (
	"math"
	"strconv"
	"testing"

	"redpatch/internal/availability"
	"redpatch/internal/mathx"
)

// composeReference is the composition ComposeNetwork replaced, kept as
// the reference FuzzComposeNetwork pins it to bit for bit: groups
// collected through a map in order of first appearance, a fresh
// up-count distribution per convolution, the per-group sums
// accumulated in place.
func composeReference(nm availability.NetworkModel, factors []availability.TierFactor) (coa, sa float64) {
	groupOf := func(t availability.Tier) string {
		if t.Group != "" {
			return t.Group
		}
		return t.Name
	}
	order := make(map[string]int)
	var groups [][]int
	for i, t := range nm.Tiers {
		g := groupOf(t)
		idx, ok := order[g]
		if !ok {
			idx = len(groups)
			order[g] = idx
			groups = append(groups, nil)
		}
		groups[idx] = append(groups[idx], i)
	}
	convolve := func(a, b []float64) []float64 {
		out := make([]float64, len(a)+len(b)-1)
		for i, pa := range a {
			if pa == 0 {
				continue
			}
			for j, pb := range b {
				out[i+j] += pa * pb
			}
		}
		return out
	}
	total := float64(nm.TotalServers())
	quorumOK := make([]float64, len(groups))
	upGivenOK := make([]float64, len(groups))
	for g, idxs := range groups {
		pmf := []float64{1}
		for _, i := range idxs {
			pmf = convolve(pmf, factors[i].PMF)
		}
		q := 1
		if v, ok := nm.Quorum[groupOf(nm.Tiers[idxs[0]])]; ok {
			q = v
		}
		for k := q; k < len(pmf); k++ {
			quorumOK[g] += pmf[k]
			upGivenOK[g] += float64(k) * pmf[k]
		}
	}
	sa = 1
	for _, p := range quorumOK {
		sa *= p
	}
	terms := make([]float64, len(groups))
	for g := range groups {
		term := upGivenOK[g]
		for h := range groups {
			if h != g {
				term *= quorumOK[h]
			}
		}
		terms[g] = term
	}
	return mathx.KahanSum(terms) / total, sa
}

// fuzzModel decodes bytes into a valid network model: 1-8 tiers over
// 1-4 logical groups (so a group often has several member tiers), 1-6
// replicas each, a zero patch rate for about a quarter of the tiers,
// and a raised quorum on about a third of the groups. Bytes past the
// end read as zero.
func fuzzModel(data []byte) availability.NetworkModel {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	var nm availability.NetworkModel
	tiers := 1 + next()%8
	groups := 1 + next()%min(tiers, 4)
	size := make([]int, groups)
	for i := range tiers {
		g := next() % groups
		n := 1 + next()%6
		lambda := 0.0
		if b := next(); b%4 != 0 {
			lambda = float64(b) / 255 * 0.1
		}
		nm.Tiers = append(nm.Tiers, availability.Tier{
			Name:     "t" + strconv.Itoa(i),
			Group:    "g" + strconv.Itoa(g),
			N:        n,
			LambdaEq: lambda,
			MuEq:     0.05 + float64(next())/64,
		})
		size[g] += n
	}
	for g, n := range size {
		if b := next(); n > 0 && b%3 == 0 {
			if nm.Quorum == nil {
				nm.Quorum = map[string]int{}
			}
			nm.Quorum["g"+strconv.Itoa(g)] = 1 + b/3%n
		}
	}
	return nm
}

// shared is the workspace every FuzzComposeNetwork input composes in
// after the one before it, so a composition that read stale scratch
// would show.
var shared availability.Workspace

// FuzzComposeNetwork pins ComposeNetwork, composing in a fresh and in a
// reused workspace, to the reference composition bit for bit on COA
// and service availability, and to the product-chain state count.
func FuzzComposeNetwork(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 0, 1, 9, 40, 1, 2, 9, 40, 2, 0, 0, 7, 0, 0})
	f.Add([]byte{7, 1, 0, 5, 200, 3, 0, 5, 201, 3, 0, 5, 0, 3, 0, 0, 12, 9})
	f.Add([]byte{5, 2, 0, 2, 77, 10, 1, 3, 78, 11, 0, 1, 4, 12, 1, 6, 255, 255, 1, 4, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		nm := fuzzModel(data)
		if err := nm.Validate(); err != nil {
			t.Fatalf("decoded an invalid model %+v: %v", nm, err)
		}
		factors, err := tierFactors(nm)
		if err != nil {
			t.Fatal(err)
		}
		coa, sa := composeReference(nm, factors)
		for _, ws := range []*availability.Workspace{nil, &shared} {
			sol, err := availability.ComposeNetwork(nm, factors, ws)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(sol.COA) != math.Float64bits(coa) ||
				math.Float64bits(sol.ServiceAvailability) != math.Float64bits(sa) {
				t.Fatalf("%+v: COA %v, SA %v; reference %v, %v", nm, sol.COA, sol.ServiceAvailability, coa, sa)
			}
			if want := availability.ProductStates(nm); sol.States != want || !sol.Factored {
				t.Fatalf("%+v: states %d factored %v, want %d true", nm, sol.States, sol.Factored, want)
			}
		}
	})
}

// TestComposeNetworkAllocations: composing in a reused workspace
// allocates nothing once its buffers have grown.
func TestComposeNetworkAllocations(t *testing.T) {
	nm := fuzzModel([]byte{7, 3, 0, 2, 77, 10, 1, 3, 78, 11, 0, 1, 4, 12, 1, 6, 255, 255, 2, 4, 3, 9, 2, 5, 6, 7, 0, 1, 1, 1, 3, 0, 0})
	factors, err := tierFactors(nm)
	if err != nil {
		t.Fatal(err)
	}
	var ws availability.Workspace
	got := testing.AllocsPerRun(100, func() {
		if _, err := availability.ComposeNetwork(nm, factors, &ws); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("ComposeNetwork in a reused workspace = %v allocs, want 0", got)
	}
}
