package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"redpatch"
)

// Workload names, in the order a standalone run interleaves them.
const (
	wEvaluateWarm = "evaluate_warm"
	wEvaluateCold = "evaluate_cold"
	wSweepCold    = "sweep_cold"
	wMixed        = "mixed"
)

var workloadNames = []string{wEvaluateWarm, wEvaluateCold, wSweepCold, wMixed}

// defaultRounds is the number of measured rounds in a run. Each
// end-to-end metric is the median of its per-round values, which
// absorbs the bursts of a shared machine that a single long measurement
// would not.
const defaultRounds = 10

// Load per round at scale 1: the standalone run, and a run given
// -seconds 8. A run given -seconds S scales these by S/8, so its total
// work is fixed by the flag, never by elapsed time: a faster commit does
// the same work as a slower one, and memory metrics stay comparable. At
// scale 1 each workload's ten rounds take 5 to 8 seconds on the
// reference machine (2 vCPU Xeon, Go 1.24) when it is quiet. The counts
// are equal in time rather than larger because the run-to-run spread on
// a shared host is set by its speed drifting over minutes: ten rounds of
// 0.35 s and of 2 s gave the same within-run noise (about 4%), while
// shorter runs keep ten runs of a workload closer together in time.
var perRound = map[string]int{
	wEvaluateWarm: 13000, // warm v2 evaluates
	wEvaluateCold: 8000,  // distinct cold v2 evaluates
	wSweepCold:    40,    // register + 512-design stream + delete cycles
	wMixed:        1200,  // background rollout sweeps; the foreground loops
}

// scaleSeconds is the -seconds value that runs the counts above.
const scaleSeconds = 8

// coldWarmup is the number of unmeasured evaluate_cold requests sent
// before round 1, so the tier-factor and security memos are warm and
// every measured request exercises only the engine-memo miss path.
const coldWarmup = 2000

// Replica ranges of the generated designs.
const (
	warmMax = 8  // the restored set: dns, web, app, db each 1..warmMax
	coldMax = 16 // the cold pool: each tier 1..coldMax, web or webalt
)

// design is a four-tier design in the paper's (dns, web, app, db) shape;
// alt selects the webalt stack for the web tier.
type design struct {
	dns, web, app, db int
	alt               bool
}

func (d design) spec() redpatch.DesignSpec {
	web := redpatch.TierSpec{Role: "web", Replicas: d.web}
	if d.alt {
		web.Variant = "webalt"
	}
	return redpatch.DesignSpec{Tiers: []redpatch.TierSpec{
		{Role: "dns", Replicas: d.dns}, web,
		{Role: "app", Replicas: d.app}, {Role: "db", Replicas: d.db},
	}}
}

// restored reports whether the design is in the set the prep sweep
// persists, which every workload daemon restores on boot.
func (d design) restored() bool {
	return !d.alt && d.dns <= warmMax && d.web <= warmMax && d.app <= warmMax && d.db <= warmMax
}

// baseDesign is the paper's §III network, whose answers are checked
// against Tables II and VI wherever it appears.
var baseDesign = design{dns: 1, web: 2, app: 2, db: 1}

// warmDesign maps 0..warmMax^4-1 onto the restored set.
func warmDesign(i int) design {
	return design{
		dns: i%warmMax + 1,
		web: i/warmMax%warmMax + 1,
		app: i/(warmMax*warmMax)%warmMax + 1,
		db:  i/(warmMax*warmMax*warmMax)%warmMax + 1,
	}
}

const warmSetSize = warmMax * warmMax * warmMax * warmMax

// coldDesign maps 0..coldPoolSpace-1 onto every design of the cold
// shape, restored ones included; callers skip those.
func coldDesign(i int) design {
	alt := i&1 == 1
	i >>= 1
	return design{
		dns: i%coldMax + 1,
		web: i/coldMax%coldMax + 1,
		app: i/(coldMax*coldMax)%coldMax + 1,
		db:  i/(coldMax*coldMax*coldMax)%coldMax + 1,
		alt: alt,
	}
}

const coldPoolSpace = 2 * coldMax * coldMax * coldMax * coldMax

// Request bodies. They are built with the facade's own wire types, so
// the daemon sees exactly what a client of the v2 API would send.

type evaluateBody struct {
	Scenario string              `json:"scenario,omitempty"`
	Spec     redpatch.DesignSpec `json:"spec"`
}

type sweepBody struct {
	Scenario string `json:"scenario,omitempty"`
	redpatch.SpecSweepRequest
}

type rolloutBody struct {
	Scenario string                   `json:"scenario,omitempty"`
	Spec     redpatch.DesignSpec      `json:"spec"`
	Schedule redpatch.RolloutSchedule `json:"schedule"`
}

type scenarioConfig struct {
	IntervalHours float64 `json:"intervalHours,omitempty"`
}

type scenarioBody struct {
	Name   string         `json:"name"`
	Config scenarioConfig `json:"config"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encoding a generated request: %v", err))
	}
	return b
}

// prepSweep is the 4,096-design classic space the prep daemon streams
// and persists: the restored set.
func prepSweep() redpatch.SpecSweepRequest {
	r := func(role string) redpatch.TierSweep { return redpatch.TierSweep{Role: role, Min: 1, Max: warmMax} }
	return redpatch.SpecSweepRequest{Tiers: []redpatch.TierSweep{r("dns"), r("web"), r("app"), r("db")}}
}

// coldSweep is sweep_cold's 512-design space: dns, app and db 1..4, web
// 1..4 on either stack.
func coldSweep() redpatch.SpecSweepRequest {
	return redpatch.SpecSweepRequest{Tiers: []redpatch.TierSweep{
		{Role: "dns", Min: 1, Max: 4},
		{Role: "web", Min: 1, Max: 4, Variants: []string{"", "webalt"}},
		{Role: "app", Min: 1, Max: 4},
		{Role: "db", Min: 1, Max: 4},
	}}
}

const coldSweepDesigns = 512

// Rollout schedules the mixed workload rotates through.
var mixedSchedules = []redpatch.RolloutSchedule{
	{Strategy: "rolling", Steps: 8},
	{Strategy: "canary", Steps: 4},
	{Strategy: "blue-green"},
}

// Request kinds.
const (
	kindEvaluate = iota
	kindSweep
	kindRollout
	kindScenarioCreate
	kindScenarioDelete
)

// request is one generated request and what its check needs to know.
type request struct {
	kind     int
	body     []byte
	design   design  // kindEvaluate, kindRollout
	scenario string  // kindSweep, kindScenario*
	interval float64 // kindSweep: the scenario's intervalHours
	points   int     // kindRollout: the schedule's expanded length
}

func evaluateRequest(d design) request {
	return request{kind: kindEvaluate, design: d, body: mustJSON(evaluateBody{Spec: d.spec()})}
}

// plan is every request a run sends, generated from the seed before any
// daemon starts. The daemon sees only these bodies.
type plan struct {
	workload string
	seed     uint64
	warmup   []request   // sent once, unmeasured, before round 1
	rounds   [][]request // the measured stream of each round
	// fgSeed seeds the mixed workload's foreground stream of round r, so
	// the in-process replay can regenerate it.
	fgSeed uint64
}

// rng returns the seeded stream for one workload; the workload name
// picks the stream, so workloads draw independently of each other.
func rng(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// countAt scales a per-round count, never below one request.
func countAt(n int, scale float64) int {
	return max(1, int(math.Round(float64(n)*scale)))
}

// newPlan generates a workload's request streams for nRounds rounds.
func newPlan(workload string, seed uint64, scale float64, nRounds int) (*plan, error) {
	p := &plan{workload: workload, seed: seed, rounds: make([][]request, nRounds)}
	n, ok := perRound[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	n = countAt(n, scale)
	r := rng(seed, workload)
	switch workload {
	case wEvaluateWarm:
		for i := range p.rounds {
			reqs := make([]request, n)
			for j := range reqs {
				reqs[j] = evaluateRequest(warmDesign(r.IntN(warmSetSize)))
			}
			p.rounds[i] = reqs
		}
	case wEvaluateCold:
		// Drawing without replacement from the pool keeps every request
		// a distinct engine-memo miss; the pool bounds the run's size.
		pool := coldPool(r)
		if most := (len(pool) - coldWarmup) / nRounds; n > most {
			n = most
		}
		next := 0
		take := func(k int) []request {
			reqs := make([]request, k)
			for j := range reqs {
				reqs[j] = evaluateRequest(pool[next])
				next++
			}
			return reqs
		}
		p.warmup = take(coldWarmup)
		for i := range p.rounds {
			p.rounds[i] = take(n)
		}
	case wSweepCold:
		sweep := coldSweep()
		for i := range p.rounds {
			reqs := make([]request, 0, 3*n)
			for j := 0; j < n; j++ {
				name := fmt.Sprintf("bench-%d-%d-%d", seed, i, j)
				// Weekly to quarterly patch cadences: a fresh policy per
				// cycle, so every memo behind the scenario starts cold.
				interval := float64(24 * (7 + r.IntN(84)))
				reqs = append(reqs,
					request{kind: kindScenarioCreate, scenario: name,
						body: mustJSON(scenarioBody{Name: name, Config: scenarioConfig{IntervalHours: interval}})},
					request{kind: kindSweep, scenario: name, interval: interval,
						body: mustJSON(sweepBody{Scenario: name, SpecSweepRequest: sweep})},
					request{kind: kindScenarioDelete, scenario: name})
			}
			p.rounds[i] = reqs
		}
	case wMixed:
		pool := coldPool(r)
		if most := len(pool) / nRounds; n > most {
			n = most
		}
		points := make([]int, len(mixedSchedules))
		for k, sched := range mixedSchedules {
			pts, err := sched.Points(4)
			if err != nil {
				return nil, fmt.Errorf("expanding the %s schedule: %w", sched.Strategy, err)
			}
			points[k] = len(pts)
		}
		next := 0
		for i := range p.rounds {
			reqs := make([]request, n)
			for j := range reqs {
				d := pool[next]
				next++
				k := j % len(mixedSchedules)
				reqs[j] = request{kind: kindRollout, design: d, points: points[k],
					body: mustJSON(rolloutBody{Spec: d.spec(), Schedule: mixedSchedules[k]})}
			}
			p.rounds[i] = reqs
		}
		p.fgSeed = r.Uint64()
	}
	return p, nil
}

// coldPool is a seeded permutation of every cold-shape design outside the
// restored set.
func coldPool(r *rand.Rand) []design {
	pool := make([]design, 0, coldPoolSpace-warmSetSize)
	for _, i := range r.Perm(coldPoolSpace) {
		if d := coldDesign(i); !d.restored() {
			pool = append(pool, d)
		}
	}
	return pool
}

// foreground returns the mixed workload's foreground stream for one
// round: warm evaluates drawn from the restored set, as many as the
// caller takes.
func (p *plan) foreground(round int) func() request {
	r := rand.New(rand.NewPCG(p.fgSeed, uint64(round)))
	return func() request { return evaluateRequest(warmDesign(r.IntN(warmSetSize))) }
}

// sampled reports whether the seeded 1-in-16 sample includes the item:
// those answers are compared field by field with the in-process facade.
func sampled(seed uint64, keys ...int) bool {
	x := seed ^ 0x9e3779b97f4a7c15
	for _, k := range keys {
		x = splitmix(x ^ uint64(k))
	}
	return x%16 == 0
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
