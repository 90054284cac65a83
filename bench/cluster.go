package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"redpatch"
)

// clusterSweep is the largest sweep -max-designs allows: dns 1..4, web
// 1..8 on either stack, app and db 1..8 — 4,096 designs.
func clusterSweep() redpatch.SpecSweepRequest {
	return redpatch.SpecSweepRequest{Tiers: []redpatch.TierSweep{
		{Role: "dns", Min: 1, Max: 4},
		{Role: "web", Min: 1, Max: 8, Variants: []string{"", "webalt"}},
		{Role: "app", Min: 1, Max: 8},
		{Role: "db", Min: 1, Max: 8},
	}}
}

const clusterSweepDesigns = 4096

// setup is one way of serving the sweep: the process the client talks
// to, and every process a fresh scenario must be registered on.
type setup struct {
	name  string
	front *daemon
	all   []*daemon
}

// runCluster implements `bench cluster`: a cold 4,096-design sweep
// stream, timed on one daemon and on a coordinator with two -worker
// daemons, alternating in interleaved rounds. It is not a workload of
// the benchmark; it answers whether the cluster beats one process.
func runCluster(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "seed of the scenarios' patch cadences")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := clusterBench(ctx, *seed, defaultRounds); err != nil {
		fmt.Fprintln(os.Stderr, "bench cluster:", err)
		return 1
	}
	return 0
}

func clusterBench(ctx context.Context, seed uint64, nRounds int) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	bin, err := buildDaemon(root, buildDir)
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(buildDir, "cluster-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	var procs []*daemon
	defer func() {
		for _, d := range procs {
			d.kill()
		}
	}()
	start := func(name string, extra ...string) (*daemon, error) {
		d, _, err := boot(bin, filepath.Join(work, name), extra...)
		if err == nil {
			procs = append(procs, d)
		}
		return d, err
	}
	single, err := start("single")
	if err != nil {
		return err
	}
	w1, err := start("worker1", "-worker")
	if err != nil {
		return err
	}
	w2, err := start("worker2", "-worker")
	if err != nil {
		return err
	}
	addrs := strings.TrimPrefix(w1.base, "http://") + "," + strings.TrimPrefix(w2.base, "http://")
	coord, err := start("coordinator", "-cluster-workers", addrs)
	if err != nil {
		return err
	}
	setups := []setup{
		{name: "single", front: single, all: []*daemon{single}},
		{name: "cluster", front: coord, all: []*daemon{coord, w1, w2}},
	}
	r := rng(seed, "cluster")
	rates := map[string][]float64{}
	for round := 0; round < nRounds; round++ {
		interval := float64(24 * (7 + r.IntN(84)))
		for i := range setups {
			// Alternate which setup goes first, so drift in the machine's
			// load does not favour one of them.
			s := setups[(i+round)%len(setups)]
			name := fmt.Sprintf("cluster-%d-%d-%s", seed, round, s.name)
			took, err := timeClusterSweep(ctx, s, name, interval)
			if err != nil {
				return fmt.Errorf("%s round %d: %w", s.name, round+1, err)
			}
			rates[s.name] = append(rates[s.name], clusterSweepDesigns/took.Seconds())
		}
	}
	one, many := median(rates["single"]), median(rates["cluster"])
	fmt.Printf("cold %d-design sweep stream, %d interleaved rounds, nproc %d\n", clusterSweepDesigns, nRounds, runtime.NumCPU())
	for _, s := range setups {
		q1, q3 := quartiles(rates[s.name])
		fmt.Printf("  %-8s %10.1f designs/s  [q1 %.1f, q3 %.1f]\n", s.name, median(rates[s.name]), q1, q3)
	}
	fmt.Printf("  cluster / single = %.3f\n", many/one)
	fmt.Println(string(mustJSON(map[string]any{
		"single_designs_per_s":  one,
		"cluster_designs_per_s": many,
		"ratio":                 many / one,
		"nproc":                 runtime.NumCPU(),
	})))
	return nil
}

// timeClusterSweep registers a fresh scenario on every process of the
// setup, times one checked sweep stream through the front process, and
// deletes the scenario again.
func timeClusterSweep(ctx context.Context, s setup, name string, interval float64) (time.Duration, error) {
	create := request{kind: kindScenarioCreate, scenario: name,
		body: mustJSON(scenarioBody{Name: name, Config: scenarioConfig{IntervalHours: interval}})}
	for _, d := range s.all {
		c := newConn(d.base)
		res := c.send(ctx, create)
		c.close()
		if res.err != nil {
			return 0, res.err
		}
	}
	c := newConn(s.front.base)
	defer c.close()
	sweep := request{kind: kindSweep, scenario: name, body: mustJSON(sweepBody{Scenario: name, SpecSweepRequest: clusterSweep()})}
	res := c.send(ctx, sweep)
	if res.err == nil {
		res.err = checkStream(res.body, clusterSweepDesigns, nil)
	}
	if res.err != nil {
		return 0, res.err
	}
	for _, d := range s.all {
		dc := newConn(d.base)
		del := dc.send(ctx, request{kind: kindScenarioDelete, scenario: name})
		dc.close()
		if del.err != nil {
			return 0, del.err
		}
	}
	return res.latency, nil
}
