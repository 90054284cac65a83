package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
)

// benchmarkJSON is the part of BENCHMARK.json the harness reads: the
// metrics it must report and their bounds.
type benchmarkJSON struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON(root string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(data, &bm); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &bm, nil
}

// valueUnit is one metric in the summary line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summaryLine is the last line of standard output.
type summaryLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// summary builds the last output line. With one workload and traced 0
// or 1 its metrics are exactly BENCHMARK.json's end_to_end or per_layer
// list; otherwise every metric of every workload, named workload/metric.
func (r *runResult) summary(bm *benchmarkJSON, traced int) summaryLine {
	line := summaryLine{Correct: true, Metrics: map[string]valueUnit{}}
	for _, name := range r.order() {
		wr := r.Workloads[name]
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		if len(r.Workloads) == 1 && traced >= 0 {
			specs, got := bm.EndToEnd, wr.EndToEnd
			if traced == 1 {
				specs, got = bm.PerLayer, wr.PerLayer
			}
			for _, s := range specs {
				m, ok := got[s.Name]
				if !ok {
					fmt.Fprintf(os.Stderr, "bench: metric %s missing from the %s results\n", s.Name, name)
					line.Correct = false
					continue
				}
				line.Metrics[s.Name] = valueUnit{Value: m.Value, Unit: m.Unit}
			}
			continue
		}
		for _, set := range []map[string]metric{wr.EndToEnd, wr.PerLayer} {
			for k, m := range set {
				line.Metrics[name+"/"+k] = valueUnit{Value: m.Value, Unit: m.Unit}
			}
		}
	}
	if line.Failed > 0 {
		line.Correct = false
	}
	return line
}

// order lists the run's workloads in the standard order.
func (r *runResult) order() []string {
	var out []string
	for _, n := range workloadNames {
		if _, ok := r.Workloads[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// print writes the human-readable tables: every metric of every
// workload, with its unit and sample count.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "redpatch bench: seed %d, %d rounds, nproc %d, %s, loadavg %s -> %s, %ds\n",
		r.Seed, r.Rounds, r.Machine.NProc, r.Machine.GoVersion, r.Machine.LoadStart, r.Machine.LoadEnd, r.Machine.WallSeconds)
	for _, name := range r.order() {
		wr := r.Workloads[name]
		errRate := float64(wr.Failed) / float64(max(wr.Attempted, 1))
		fmt.Fprintf(w, "\n%s: attempted %d, failed %d, error_rate %g; %d answers held to the paper, %d compared with the facade\n",
			name, wr.Attempted, wr.Failed, errRate, wr.PaperChecks, wr.Sampled)
		if wr.FirstError != "" {
			fmt.Fprintf(w, "  first failure: %s\n", wr.FirstError)
		}
		for _, sec := range []struct {
			title string
			set   map[string]metric
		}{{"end to end", wr.EndToEnd}, {"per layer", wr.PerLayer}} {
			if len(sec.set) == 0 {
				continue
			}
			fmt.Fprintf(w, "  %s\n", sec.title)
			for _, k := range slices.Sorted(maps.Keys(sec.set)) {
				m := sec.set[k]
				fmt.Fprintf(w, "    %-36s %14.4f %-11s n=%d\n", k, m.Value, m.Unit, m.N)
			}
		}
	}
	fmt.Fprintln(w)
}

// write stores result.json and each workload's span file in dir.
func (r *runResult) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	for name, wr := range r.Workloads {
		if wr.spans == nil {
			continue
		}
		f, err := os.Create(filepath.Join(dir, "spans-"+name+".ndjson"))
		if err != nil {
			return err
		}
		if err := wr.spans.writeSpans(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
