package availability_test

import (
	"fmt"
	"time"

	"redpatch/internal/availability"
)

// Example runs the paper's two-level availability pipeline for the DNS
// server: build and solve the Fig. 5 stochastic reward net, aggregate it
// into the Table V two-state rates, and combine four such tiers into the
// network-level capacity oriented availability of Table VI.
func Example() {
	params := availability.DefaultRates("dns")
	params.SvcPatchTime = 5 * time.Minute // one critical service vuln
	params.OSPatchTime = 20 * time.Minute // two critical OS vulns

	sol, err := availability.SolveServer(params)
	if err != nil {
		panic(err)
	}
	agg, err := availability.Aggregate(sol)
	if err != nil {
		panic(err)
	}
	fmt.Printf("dns: MTTP %.0f h, MTTR %.4f h\n", agg.MTTP(), agg.MTTR())

	nm := availability.NetworkModel{Tiers: []availability.Tier{
		{Name: "dns", N: 1, LambdaEq: agg.LambdaEq, MuEq: agg.MuEq},
		{Name: "web", N: 2, LambdaEq: 1.0 / 720, MuEq: 1.71420},
		{Name: "app", N: 2, LambdaEq: 1.0 / 720, MuEq: 0.99995},
		{Name: "db", N: 1, LambdaEq: 1.0 / 720, MuEq: 1.09085},
	}}
	net, err := availability.SolveNetworkSRN(nm)
	if err != nil {
		panic(err)
	}
	fmt.Printf("network COA: %.5f\n", net.COA)
	// Output:
	// dns: MTTP 720 h, MTTR 0.6667 h
	// network COA: 0.99707
}
