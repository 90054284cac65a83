package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"within the bound", steady, []float64{102, 103, 101}, "higher", verdictSame},
		{"throughput drops past the bound", steady, []float64{80, 81, 79}, "higher", verdictWorse},
		{"throughput rises past the bound, every run ahead", steady, []float64{130, 131, 129}, "higher", verdictBetter},
		{"latency rises past the bound", steady, []float64{120, 121, 119}, "lower", verdictWorse},
		{"latency falls past the bound", steady, []float64{80, 81, 79}, "lower", verdictBetter},
		{"a noisy parent cannot resolve a change", []float64{60, 100, 150}, []float64{101, 100, 99}, "higher", verdictUnresolved},
		{"a noisy change cannot resolve either", steady, []float64{60, 100, 150}, "higher", verdictUnresolved},
		{"noisy, but every run of the change is better", []float64{60, 80, 100}, []float64{120, 160, 200}, "higher", verdictBetter},
		{"past the bound but overlapping runs",
			[]float64{100, 100, 100, 100, 100, 100, 100, 140}, []float64{120, 120, 120, 120, 120, 120, 120, 95}, "higher", verdictSame},
	} {
		if got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func writeResult(t *testing.T, dir string, thr, p50 float64) string {
	t.Helper()
	r := runResult{Seed: 1, Workloads: map[string]*workloadResult{
		wEvaluateWarm: {EndToEnd: map[string]metric{
			"throughput_rps": {Value: thr, Unit: "requests/s"},
			"latency_p50_ms": {Value: p50, Unit: "ms"},
		}},
	}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "result.json")
	data, _ := json.Marshal(r)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCompareExitsOneOnWorse runs compare against the repository's
// BENCHMARK.json, whose bounds are 25%.
func TestCompareExitsOneOnWorse(t *testing.T) {
	dir := t.TempDir()
	var a, same, slow []string
	for i, v := range []float64{100, 101, 99} {
		a = append(a, writeResult(t, filepath.Join(dir, "a", string(rune('0'+i))), v, 1))
		same = append(same, writeResult(t, filepath.Join(dir, "s", string(rune('0'+i))), v+1, 1))
		slow = append(slow, writeResult(t, filepath.Join(dir, "w", string(rune('0'+i))), v, 1.5))
	}
	args := func(b []string) []string {
		return append(append(append([]string(nil), a...), "--"), b...)
	}
	var out bytes.Buffer
	if code := runCompare(args(same), &out); code != 0 {
		t.Fatalf("same code: exit %d\n%s", code, out.String())
	}
	if strings.Count(out.String(), " "+verdictSame) != 2 {
		t.Errorf("want two same verdicts:\n%s", out.String())
	}
	out.Reset()
	if code := runCompare(args(slow), &out); code != 1 {
		t.Fatalf("50%% slower p50: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("want a worse verdict:\n%s", out.String())
	}
	if code := runCompare(a, &out); code != 2 {
		t.Errorf("missing second set: exit %d, want 2", code)
	}
}
