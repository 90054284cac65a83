// Command paper-repro regenerates every table and figure of the paper's
// evaluation from the models in this repository and prints them with the
// published values alongside, so a reader can check the reproduction at a
// glance.
//
// Usage:
//
//	paper-repro [-csv]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"redpatch"

	"redpatch/internal/attacktree"
	"redpatch/internal/availability"
	"redpatch/internal/harm"
	"redpatch/internal/paperdata"
	"redpatch/internal/patch"
	"redpatch/internal/report"
	"redpatch/internal/srn"
)

func main() {
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	flag.Parse()
	if err := run(os.Stdout, *csv); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, csv bool) error {
	study, err := redpatch.NewCaseStudy()
	if err != nil {
		return err
	}
	designs, err := study.PaperDesigns()
	if err != nil {
		return err
	}
	base, err := study.BaseNetwork()
	if err != nil {
		return err
	}

	emit := func(t *report.Table) {
		if csv {
			fmt.Fprint(w, t.CSV())
		} else {
			fmt.Fprintln(w, t.Render())
		}
	}

	// Table I.
	t1 := report.NewTable("Table I — vulnerability information", "vulnerability", "CVE", "attack impact", "attack success probability", "base score", "critical")
	db := paperdata.VulnDB()
	rows := [][2]string{
		{"v1dns", "CVE-2016-3227"},
		{"v1web", "CVE-2016-4448"}, {"v2web", "CVE-2015-4602"}, {"v3web", "CVE-2015-4603"},
		{"v4web", "CVE-2016-4979"}, {"v5web", "CVE-2016-4805"},
		{"v1app", "CVE-2016-3586"}, {"v2app", "CVE-2016-3510"}, {"v3app", "CVE-2016-3499"},
		{"v4app", "CVE-2016-0638"}, {"v5app", "CVE-2016-4997"},
		{"v1db", "CVE-2016-6662"}, {"v2db", "CVE-2016-0639"}, {"v3db", "CVE-2015-3152"},
		{"v4db", "CVE-2016-3471"}, {"v5db", "CVE-2016-4997"},
	}
	for _, r := range rows {
		v, ok := db.ByID(r[1])
		if !ok {
			return fmt.Errorf("missing %s", r[1])
		}
		t1.AddRow(r[0], v.ID, report.F(v.Impact(), 1), report.F(v.ASP(), 2),
			report.F(v.BaseScore(), 1), fmt.Sprintf("%v", v.IsCritical(8.0)))
	}
	emit(t1)

	// Table II.
	t2 := report.NewTable("Table II — security metrics of the example network",
		"metric", "before patch (paper)", "before (measured)", "after patch (paper)", "after (measured)")
	t2.AddRow("AIM", "52.2", report.F(base.Before.AIM, 1), "42.2", report.F(base.After.AIM, 1))
	t2.AddRow("ASP", "1.0", report.F(base.Before.ASP, 3), "0.265**", report.F(base.After.ASP, 3))
	t2.AddRow("NoEV", "25*", report.I(base.Before.NoEV), "11", report.I(base.After.NoEV))
	t2.AddRow("NoAP", "8", report.I(base.Before.NoAP), "4", report.I(base.After.NoAP))
	t2.AddRow("NoEP", "3", report.I(base.Before.NoEP), "2", report.I(base.After.NoEP))
	emit(t2)
	if !csv {
		fmt.Fprintln(w, "  * the paper prints 25, but its own counting rule (Table I exploitable")
		fmt.Fprintln(w, "    vulnerabilities summed over instances: 1 + 2*5 + 2*5 + 5) gives 26.")
		fmt.Fprintln(w, " ** no published aggregation rule reproduces 0.265; the exact compromise")
		fmt.Fprintf(w, "    probability over noisy-OR attack trees, the closest, gives %s.\n", report.F(base.After.ASP, 3))
		fmt.Fprintln(w)
	}

	// Table V.
	t5 := report.NewTable("Table V — aggregated values for the servers (paper values in parentheses)",
		"service", "MTTP (h)", "patch rate", "MTTR (h)", "recovery rate", "patch window (min)")
	paperMTTR := map[string]string{"dns": "0.6667", "web": "0.5834", "app": "1.0001", "db": "0.9167"}
	paperMu := map[string]string{"dns": "1.49992", "web": "1.71420", "app": "0.99995", "db": "1.09085"}
	rates := study.PatchRates()
	for _, role := range paperdata.Roles() {
		r := rates[role]
		t5.AddRow(role,
			report.F(r.MTTPHours, 0),
			report.F(r.PatchRate, 5),
			fmt.Sprintf("%s (%s)", report.F(r.MTTRHours, 4), paperMTTR[role]),
			fmt.Sprintf("%s (%s)", report.F(r.RecoveryRate, 5), paperMu[role]),
			report.F(r.DowntimeMinutes, 0))
	}
	emit(t5)

	// Table VI.
	t6 := report.NewTable("Table VI — capacity oriented availability of the example network",
		"measure", "paper", "measured")
	t6.AddRow("COA", "0.99707", report.F(base.COA, 5))
	t6.AddRow("service availability", "-", report.F(base.ServiceAvailability, 5))
	emit(t6)

	// Figure 6.
	f6 := report.NewTable("Figure 6 — ASP vs COA of the five redundancy designs",
		"design", "ASP before", "ASP after", "COA")
	for _, d := range designs {
		f6.AddRow(d.Description, report.F(d.Before.ASP, 3), report.F(d.After.ASP, 4), report.F(d.COA, 6))
	}
	emit(f6)

	if !csv {
		plot := report.ScatterSeries{
			Title:  "Figure 6(b) — after patch",
			XLabel: "ASP",
			YLabel: "COA",
		}
		for _, d := range designs {
			plot.Points = append(plot.Points, report.ScatterPoint{Label: d.Description, X: d.After.ASP, Y: d.COA})
		}
		fmt.Fprintln(w, plot.ASCIIPlot(56, 12))
	}

	regions := report.NewTable("Figure 6 — Eq. 3 decision regions", "region", "bounds", "designs (paper)", "designs (measured)")
	r1 := redpatch.FilterScatter(designs, redpatch.ScatterBounds{MaxASP: 0.2, MinCOA: 0.9962})
	r2 := redpatch.FilterScatter(designs, redpatch.ScatterBounds{MaxASP: 0.1, MinCOA: 0.9961})
	regions.AddRow("1", "phi=0.2 psi=0.9962", "D4, D5", describe(r1))
	regions.AddRow("2", "phi=0.1 psi=0.9961", "D2", describe(r2))
	emit(regions)

	// Figure 7.
	f7 := report.NewTable("Figure 7 — six-metric comparison (after patch)",
		"design", "NoEP", "COA", "ASP", "AIM", "NoEV", "NoAP")
	for _, d := range designs {
		f7.AddRow(d.Description, report.I(d.After.NoEP), report.F(d.COA, 6),
			report.F(d.After.ASP, 4), report.F(d.After.AIM, 1),
			report.I(d.After.NoEV), report.I(d.After.NoAP))
	}
	emit(f7)

	f7b := report.NewTable("Figure 7 — Eq. 4 decision regions", "region", "bounds", "designs (paper)", "designs (measured)")
	m1 := redpatch.FilterMulti(designs, redpatch.MultiBounds{MaxASP: 0.2, MaxNoEV: 9, MaxNoAP: 2, MaxNoEP: 1, MinCOA: 0.9962})
	m2 := redpatch.FilterMulti(designs, redpatch.MultiBounds{MaxASP: 0.1, MaxNoEV: 7, MaxNoAP: 1, MaxNoEP: 1, MinCOA: 0.9961})
	f7b.AddRow("1", "phi=0.2 xi=9 omega=2 kappa=1 psi=0.9962", "D4", describe(m1))
	f7b.AddRow("2", "phi=0.1 xi=7 omega=1 kappa=1 psi=0.9961", "D2", describe(m2))
	emit(f7b)

	// The two observations of §IV-C, derived rather than asserted.
	obs := report.NewTable("§IV-C observations", "observation", "check")
	obs.AddRow("redundancy on the slowest-recovering tier (app) gains most COA",
		fmt.Sprintf("gain(D4)=%.6f > gain(D5)=%.6f > gain(D2)=%.6f > gain(D3)=%.6f",
			designs[3].COA-designs[0].COA, designs[4].COA-designs[0].COA,
			designs[1].COA-designs[0].COA, designs[2].COA-designs[0].COA))
	obs.AddRow("redundant DNS (clean after patch) keeps D1's security with better COA",
		fmt.Sprintf("D2 after == D1 after: %v; COA %.6f > %.6f",
			designs[1].After == designs[0].After, designs[1].COA, designs[0].COA))
	emit(obs)

	// Fig. 2 topology and Fig. 3 HARM DOT exports for completeness.
	if !csv {
		top := paperdata.SpecTopology(paperdata.BaseDesign().Spec())
		fmt.Fprintln(w, "Figure 2 topology (Graphviz):")
		fmt.Fprintln(w, top.DOT())
		h, err := harm.Build(harm.BuildInput{Topology: top, Trees: paperdata.Trees(db), TargetRoles: []string{paperdata.RoleDB}})
		if err != nil {
			return err
		}
		pol := patch.CriticalPolicy()
		patched, err := h.Patched(func(_ string, l *attacktree.Leaf) bool {
			v, ok := db.ByID(l.Ref)
			return !ok || !pol.Selects(v)
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Figure 3 two-layered HARM before patch (Graphviz):")
		fmt.Fprintln(w, h.DOT())
		fmt.Fprintln(w, "Figure 3 two-layered HARM after patch (Graphviz):")
		fmt.Fprintln(w, patched.DOT())
		params, _, err := paperdata.ServerParams(db, paperdata.RoleDNS, patch.CriticalPolicy(), patch.MonthlySchedule())
		if err != nil {
			return err
		}
		net, _, err := availability.BuildServerSRN(params)
		if err != nil {
			return err
		}
		ss, err := net.Generate(srn.GenerateOptions{})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Figure 5 server SRN (DNS): %d places, %d transitions, %d tangible / %d vanishing markings\n",
			len(net.Places()), len(net.Transitions()), ss.NumTangible(), ss.NumVanishing())
	}
	return nil
}

func describe(ds []redpatch.DesignReport) string {
	if len(ds) == 0 {
		return "(none)"
	}
	s := ""
	for i, d := range ds {
		if i > 0 {
			s += ", "
		}
		s += d.Name
	}
	return s
}
