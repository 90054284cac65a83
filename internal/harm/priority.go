package harm

import (
	"fmt"
	"sort"

	"redpatch/internal/attacktree"
)

// Risk is the combined network-level risk of the metrics: attack success
// probability times attack impact, the standard composition in the
// security-metrics survey the paper cites.
func (m Metrics) Risk() float64 { return m.ASP * m.AIM }

// PatchCandidate reports the network-level effect of patching a single
// vulnerability everywhere it occurs.
type PatchCandidate struct {
	// Ref is the vulnerability reference (CVE ID in the paper dataset).
	Ref string
	// Hosts lists the host instances whose attack trees carry the
	// vulnerability, sorted.
	Hosts []string
	// After holds the network metrics with only this vulnerability
	// patched.
	After Metrics
	// RiskReduction is Risk(before) - Risk(after); the ranking key.
	RiskReduction float64
}

// RankPatchCandidatesWhere evaluates, for every distinct vulnerability
// in the HARM that eligible accepts, the security metrics of the network
// with only that vulnerability patched, and returns the candidates
// sorted by descending risk reduction (ties broken by reference). It
// answers the prioritization question behind the paper's observation
// that patching everything is infeasible "due to time and cost
// constraints": which single patch buys the most security. A patch
// policy passes its selected set as eligible; a nil eligible ranks every
// vulnerability.
func (h *HARM) RankPatchCandidatesWhere(opts EvalOptions, eligible func(ref string) bool) ([]PatchCandidate, error) {
	before, err := h.Evaluate(opts)
	if err != nil {
		return nil, err
	}
	refHosts := make(map[string][]string)
	for _, host := range h.Hosts() {
		seen := make(map[string]bool)
		for _, leaf := range h.lower[host].Leaves() {
			if !seen[leaf.Ref] {
				seen[leaf.Ref] = true
				refHosts[leaf.Ref] = append(refHosts[leaf.Ref], host)
			}
		}
	}
	refs := make([]string, 0, len(refHosts))
	for ref := range refHosts {
		if eligible == nil || eligible(ref) {
			refs = append(refs, ref)
		}
	}
	sort.Strings(refs)

	out := make([]PatchCandidate, 0, len(refs))
	for _, ref := range refs {
		ref := ref
		patched, err := h.Patched(func(role string, l *attacktree.Leaf) bool { return l.Ref != ref })
		if err != nil {
			return nil, fmt.Errorf("harm: ranking %s: %w", ref, err)
		}
		after, err := patched.Evaluate(opts)
		if err != nil {
			return nil, fmt.Errorf("harm: ranking %s: %w", ref, err)
		}
		hosts := append([]string(nil), refHosts[ref]...)
		sort.Strings(hosts)
		out = append(out, PatchCandidate{
			Ref:           ref,
			Hosts:         hosts,
			After:         after,
			RiskReduction: before.Risk() - after.Risk(),
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].RiskReduction != out[j].RiskReduction {
			return out[i].RiskReduction > out[j].RiskReduction
		}
		return out[i].Ref < out[j].Ref
	})
	return out, nil
}
