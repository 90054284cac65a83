package cvss_test

import (
	"fmt"

	"redpatch/internal/cvss"
)

// ExampleParse scores the paper's headline MySQL vulnerability
// (CVE-2016-6662, Table I row v1db).
func ExampleParse() {
	v, err := cvss.Parse("AV:N/AC:L/Au:N/C:C/I:C/A:C")
	if err != nil {
		panic(err)
	}
	fmt.Printf("base %.1f impact %.1f asp %.2f\n",
		v.BaseScore(), v.ImpactScoreRounded(), v.AttackSuccessProbability())
	// Output: base 10.0 impact 10.0 asp 1.00
}
