package redundancy

import (
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
	"redpatch/internal/vulndb"
)

// CampaignResidualASP traces the composite attack-surface probability of
// a role's policy-selected vulnerabilities across a campaign: entry i is
// the probability that at least one still-unpatched selected
// vulnerability is successfully exploited after i completed rounds
// (entry 0 = before any round, last entry = the floor the deferred set
// leaves behind). The composition is canonical (vulndb.CompositeASP), so
// the fleet simulator's residual stream and this trajectory agree bit
// for bit on the same campaign.
func (e *Evaluator) CampaignResidualASP(role string, camp patch.Campaign) ([]float64, error) {
	vulns, err := paperdata.VulnsForRole(e.db, role)
	if err != nil {
		return nil, err
	}
	var selected []vulndb.Vulnerability
	for _, v := range vulns {
		if e.policy.Selects(v) {
			selected = append(selected, v)
		}
	}
	out := make([]float64, camp.TotalRounds()+1)
	for i := range out {
		out[i] = vulndb.CompositeASP(camp.ResidualAfterRound(i, selected))
	}
	return out, nil
}
