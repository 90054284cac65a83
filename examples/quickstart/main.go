// Quickstart: evaluate one redundancy design of the paper's case study
// through the public API — security metrics before/after the monthly
// patch round plus capacity oriented availability — and test it against
// administrator bounds.
package main

import (
	"fmt"
	"log"

	"redpatch"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	study, err := redpatch.NewCaseStudy()
	if err != nil {
		return err
	}

	// The paper's base network: active-active web and application
	// clusters behind one DNS server, one database server.
	base, err := study.BaseNetwork()
	if err != nil {
		return err
	}
	fmt.Printf("network: %s (%d servers)\n", base.Description, base.Servers)
	fmt.Printf("  attack impact           %6.1f -> %6.1f\n", base.Before.AIM, base.After.AIM)
	fmt.Printf("  attack success prob     %6.3f -> %6.3f\n", base.Before.ASP, base.After.ASP)
	fmt.Printf("  exploitable vulns       %6d -> %6d\n", base.Before.NoEV, base.After.NoEV)
	fmt.Printf("  attack paths            %6d -> %6d\n", base.Before.NoAP, base.After.NoAP)
	fmt.Printf("  capacity oriented availability: %.5f\n\n", base.COA)

	// Try a variant: add a second database server.
	variant, err := study.EvaluateSpec(redpatch.ClassicSpec("extra-db", 1, 2, 2, 2))
	if err != nil {
		return err
	}
	fmt.Printf("variant: %s\n", variant.Description)
	fmt.Printf("  COA %.5f (%+.5f), ASP after patch %.3f (%+.3f)\n\n",
		variant.COA, variant.COA-base.COA, variant.After.ASP, variant.After.ASP-base.After.ASP)

	// Administrator decision (the paper's Eq. 3): does each design keep
	// ASP at or below 0.25 while COA stays at or above 0.997?
	bounds := redpatch.ScatterBounds{MaxASP: 0.25, MinCOA: 0.997}
	for _, d := range []redpatch.DesignReport{base, variant} {
		fmt.Printf("  %-30s satisfies (phi=%.2f, psi=%.3f): %v\n",
			d.Description, bounds.MaxASP, bounds.MinCOA, bounds.Satisfied(d))
	}
	return nil
}
