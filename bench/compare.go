package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Verdicts of compare.
const (
	verdictBetter     = "better"
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict judges set b against set a for one metric. A set whose
// interquartile range is wider than the bound cannot show a change of
// that size, so the pair is unresolved — unless every run of b beats
// every run of a. Otherwise b is worse when its median is worse than
// a's by more than the bound, better when its median is better by more
// than the bound and every run of b beats every run of a, and the same
// in between.
func verdict(a, b []float64, better string, bound float64) string {
	ma, mb := median(a), median(b)
	if ma == 0 || len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	gain := (mb - ma) / math.Abs(ma)
	if better == "lower" {
		gain = -gain
	}
	dominates := beatsAll(a, b, better)
	if spread(a) > bound || spread(b) > bound {
		if dominates {
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch {
	case gain < -bound:
		return verdictWorse
	case gain > bound && dominates:
		return verdictBetter
	}
	return verdictSame
}

// beatsAll reports whether every value of b is better than every value
// of a.
func beatsAll(a, b []float64, better string) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if better == "lower" {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}

// runCompare implements `bench compare A... -- B...`: each argument is a
// result.json (or a directory holding one). It prints, for every
// workload and end-to-end metric, each set's median and quartiles, the
// bound and the verdict, and exits 1 when any verdict is worse.
func runCompare(args []string, w io.Writer) int {
	var setA, setB []string
	cur := &setA
	for _, a := range args {
		if a == "--" {
			cur = &setB
			continue
		}
		*cur = append(*cur, a)
	}
	if len(setA) == 0 || len(setB) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A/result.json... -- B/result.json...")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	bm, err := loadBenchmarkJSON(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, err := loadResults(setA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := loadResults(setB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	worse := false
	fmt.Fprintf(w, "%-14s %-16s %28s %28s %8s %6s  %s\n", "workload", "metric",
		fmt.Sprintf("A median [q1, q3] (n=%d)", len(setA)), fmt.Sprintf("B median [q1, q3] (n=%d)", len(setB)),
		"change", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, spec := range bm.EndToEnd {
			va, vb := a.values(wl, spec.Name), b.values(wl, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(va, vb, spec.Better, spec.Bound)
			if v == verdictWorse {
				worse = true
			}
			ma, mb := median(va), median(vb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / math.Abs(ma) * 100
			}
			fmt.Fprintf(w, "%-14s %-16s %28s %28s %+7.1f%% %5.0f%%  %s\n", wl, spec.Name,
				describe(va), describe(vb), change, spec.Bound*100, v)
		}
	}
	if worse {
		return 1
	}
	return 0
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// resultSet is the runs of one side of a comparison.
type resultSet []*runResult

func loadResults(paths []string) (resultSet, error) {
	var out resultSet
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil && fi.IsDir() {
			p = filepath.Join(p, "result.json")
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r runResult
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", p, err)
		}
		out = append(out, &r)
	}
	return out, nil
}

// values collects one metric of one workload across the set's runs.
func (s resultSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range s {
		wr, ok := r.Workloads[workload]
		if !ok {
			continue
		}
		if m, ok := wr.EndToEnd[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
