// Command bench is redpatch's end-to-end benchmark. It builds
// cmd/redpatchd from the checkout, boots one daemon per workload on
// loopback from a restored memo dump, drives each with closed-loop
// clients over keep-alive HTTP in interleaved rounds, checks every
// answer, and reports each metric by name with its unit and sample
// count. A separate in-process replay of the same generated requests,
// traced, gives the per-layer breakdown.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-seed N] [-out DIR]             all four workloads, interleaved
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1
//	bash bench/run.sh compare A/*.json -- B/*.json
//	bash bench/run.sh cluster [-seed N]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the
// workloads, the metrics and how to read them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var code int
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		code = runCompare(os.Args[2:], os.Stdout)
	} else if len(os.Args) > 1 && os.Args[1] == "cluster" {
		code = runCluster(ctx, os.Args[2:])
	} else {
		code = runMain(ctx, os.Args[1:])
	}
	stop()
	os.Exit(code)
}

// config is one benchmark run.
type config struct {
	workloads []string
	seed      uint64
	seconds   int // 0: the standalone scale
	rounds    int
	replay    bool // run the traced in-process replay
	out       string
}

func (c config) scale() float64 {
	if c.seconds > 0 {
		return float64(c.seconds) / scaleSeconds
	}
	return 1
}

func runMain(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload; empty runs all four in interleaved rounds")
	seed := fs.Uint64("seed", 1, "seed of the generated requests")
	seconds := fs.Int("seconds", 0, "size the run's fixed work: 8 (and 0) run the standalone counts, other values scale them")
	traced := fs.Int("trace", -1, "0: report end-to-end metrics; 1: run the traced replay and report per-layer metrics; -1 (standalone default): both")
	out := fs.String("out", "", "directory for result.json and the span files; empty writes none")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, rounds: defaultRounds, out: *out, replay: *traced != 0}
	if *workload == "" {
		cfg.workloads = workloadNames
	} else {
		if _, ok := perRound[*workload]; !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		cfg.workloads = []string{*workload}
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bm, err := loadBenchmarkJSON(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res, err := runBenchmark(ctx, root, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if cfg.out != "" {
		if err := res.write(cfg.out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	res.print(os.Stdout)
	line := res.summary(bm, *traced)
	fmt.Println(string(mustJSON(line)))
	if !line.Correct {
		return 1
	}
	return 0
}

// workloadResult is one workload's outcome in a run.
type workloadResult struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// PaperChecks counts answers for the base design held to the paper's
	// tables; Sampled counts answers compared with the in-process facade.
	PaperChecks int                  `json:"paperChecks"`
	Sampled     int                  `json:"sampled"`
	FirstError  string               `json:"firstError,omitempty"`
	EndToEnd    map[string]metric    `json:"endToEnd"`
	PerLayer    map[string]metric    `json:"perLayer,omitempty"`
	PerRound    map[string][]float64 `json:"perRound"`

	spans *layerAgg
}

// runResult is a whole run, as result.json stores it.
type runResult struct {
	Seed      uint64                     `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Rounds    int                        `json:"rounds"`
	Machine   machineInfo                `json:"machine"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// machineInfo records where a result was measured.
type machineInfo struct {
	NProc       int    `json:"nproc"`
	CPU         string `json:"cpu"`
	GoVersion   string `json:"goVersion"`
	Commit      string `json:"commit,omitempty"`
	LoadStart   string `json:"loadavgStart"`
	LoadEnd     string `json:"loadavgEnd"`
	StartedUTC  string `json:"startedUtc"`
	WallSeconds int    `json:"wallSeconds"`
}

func loadavg() string {
	b, _ := os.ReadFile("/proc/loadavg") // best effort: informational only
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo") // best effort: informational only
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "" // a checkout without git metadata
	}
	return strings.TrimSpace(string(out))
}

// runBenchmark builds the daemon, runs every configured workload in
// interleaved rounds, verifies the answers and, when configured, replays
// the traced breakdown.
func runBenchmark(ctx context.Context, root string, cfg config) (*runResult, error) {
	started := time.Now()
	res := &runResult{
		Seed: cfg.seed, Seconds: cfg.seconds, Rounds: cfg.rounds,
		Workloads: map[string]*workloadResult{},
		Machine: machineInfo{
			NProc: runtime.NumCPU(), CPU: cpuModel(), GoVersion: runtime.Version(),
			Commit: commit(root), LoadStart: loadavg(), StartedUTC: started.UTC().Format(time.RFC3339),
		},
	}
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildDaemon(root, buildDir)
	if err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	plans := make([]*plan, len(cfg.workloads))
	for i, w := range cfg.workloads {
		if plans[i], err = newPlan(w, cfg.seed, cfg.scale(), cfg.rounds); err != nil {
			return nil, err
		}
	}
	dump, err := prepare(ctx, bin, filepath.Join(work, "prep"))
	if err != nil {
		return nil, err
	}
	info, err := os.Stat(dump)
	if err != nil {
		return nil, err
	}
	snapshotMB := float64(info.Size()) / (1 << 20)

	runs := make([]*workloadRun, len(plans))
	defer func() {
		// Stopping twice is harmless, so every exit path stops them all.
		for _, w := range runs {
			if w != nil {
				w.stop()
			}
		}
	}()
	for i, p := range plans {
		runs[i], err = startWorkload(p, &booter{bin: bin, dump: dump, dir: filepath.Join(work, p.workload)})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.workload, err)
		}
		runs[i].runWarmup(ctx)
	}
	for r := 0; r < cfg.rounds; r++ {
		for _, w := range runs {
			if err := w.runRound(ctx, r); err != nil {
				return nil, fmt.Errorf("%s round %d: %w", w.plan.workload, r+1, err)
			}
		}
	}
	for _, w := range runs {
		rss, err := w.d.peakRSSMB()
		if err != nil {
			return nil, fmt.Errorf("%s: reading peak RSS: %w", w.plan.workload, err)
		}
		w.stop()
		tot := w.totals()
		wr := &workloadResult{
			Attempted: tot.attempted + w.warmup.attempted,
			Failed:    tot.failed + w.warmup.failed,
			EndToEnd:  w.endToEnd(rss),
			PerRound:  w.perRound(),
		}
		firstErr := errors.Join(w.warmup.firstErr, tot.firstErr)
		samples := append(w.warmup.samples, tot.samples...)
		bad, verr := verify(ctx, samples)
		wr.Failed += bad
		wr.Sampled = len(samples)
		wr.PaperChecks = int(w.ck.paper.Load())
		if firstErr == nil {
			firstErr = verr
		}
		if firstErr != nil {
			wr.FirstError = firstErr.Error()
		}
		w.result = wr
		res.Workloads[w.plan.workload] = wr
	}
	if cfg.replay {
		for _, w := range runs {
			rr, err := replay(ctx, w.plan, w.foregroundPerRound(), cfg.out != "")
			if err != nil {
				return nil, err
			}
			w.result.PerLayer = w.perLayer(rr, snapshotMB)
			w.result.spans = rr.agg
		}
	}
	res.Machine.LoadEnd = loadavg()
	res.Machine.WallSeconds = int(time.Since(started).Seconds())
	return res, ctx.Err()
}
