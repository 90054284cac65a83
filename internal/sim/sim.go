// Package sim is a discrete-event Monte-Carlo simulator for the
// stochastic reward nets of internal/srn. It estimates steady-state
// expected reward rates by simulating trajectories and batching, serving
// as an independent cross-check of the analytic
// reachability-plus-steady-state pipeline — the role a measurement
// testbed would play for the paper's models.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"redpatch/internal/srn"
)

// Options configures a simulation run. Times are in the same unit as the
// net's rates (hours throughout this repository).
type Options struct {
	// Horizon is the simulated time per batch after warmup; required.
	Horizon float64
	// Warmup is discarded simulated time at the start (default: one tenth
	// of the horizon).
	Warmup float64
	// Batches is the number of independent batches used for the standard
	// error (default 10, minimum 2).
	Batches int
	// Seed seeds the random source; the same seed reproduces the run
	// exactly.
	Seed int64
	// MaxEvents caps the total number of transition firings as a runaway
	// guard (default 50 million).
	MaxEvents int64
	// MaxImmediateChain caps consecutive immediate firings without time
	// advancing (default 10000); exceeding it indicates a vanishing loop.
	MaxImmediateChain int
}

func (o Options) withDefaults() (Options, error) {
	if o.Horizon <= 0 || math.IsNaN(o.Horizon) {
		return o, fmt.Errorf("sim: invalid horizon %v", o.Horizon)
	}
	if o.Warmup < 0 {
		return o, fmt.Errorf("sim: negative warmup")
	}
	if o.Warmup == 0 {
		o.Warmup = o.Horizon / 10
	}
	if o.Batches == 0 {
		o.Batches = 10
	}
	if o.Batches < 2 {
		return o, fmt.Errorf("sim: need at least 2 batches, have %d", o.Batches)
	}
	if o.MaxEvents <= 0 {
		o.MaxEvents = 50_000_000
	}
	if o.MaxImmediateChain <= 0 {
		o.MaxImmediateChain = 10000
	}
	return o, nil
}

// Estimate is the simulation result for one reward function.
type Estimate struct {
	// Mean is the batch-mean estimate of the expected steady-state reward
	// rate.
	Mean float64
	// StdErr is the standard error across batches.
	StdErr float64
	// Lo95 and Hi95 bound the approximate 95% confidence interval
	// (mean ± 1.96 stderr).
	Lo95, Hi95 float64
	// Events counts transition firings over the whole run.
	Events int64
}

// Contains reports whether the confidence interval covers x.
func (e Estimate) Contains(x float64) bool { return x >= e.Lo95 && x <= e.Hi95 }

// ErrDeadlock reports that the simulation reached a marking with no
// enabled transitions.
var ErrDeadlock = errors.New("sim: deadlock marking reached")

// ErrImmediateLoop reports a non-terminating chain of immediate firings.
var ErrImmediateLoop = errors.New("sim: immediate-transition loop")

// EstimateReward simulates the net and estimates the expected steady-state
// rate of the reward function by the batch-means method.
func EstimateReward(net *srn.Net, reward srn.RewardFunc, opts Options) (Estimate, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return Estimate{}, err
	}
	if err := net.Validate(); err != nil {
		return Estimate{}, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	st := &state{
		net:   net,
		rng:   rng,
		m:     net.InitialMarking(),
		opts:  opts,
		timed: timedTransitions(net),
	}
	// Settle immediates of the initial marking.
	if err := st.settleImmediates(); err != nil {
		return Estimate{}, err
	}
	// Warmup.
	if err := st.run(opts.Warmup, nil); err != nil {
		return Estimate{}, err
	}
	// Batches.
	means := make([]float64, opts.Batches)
	for b := range means {
		var acc float64
		accfn := func(dt float64, m srn.Marking) { acc += dt * reward(m) }
		if err := st.run(opts.Horizon, accfn); err != nil {
			return Estimate{}, err
		}
		means[b] = acc / opts.Horizon
	}

	est := Estimate{Events: st.events}
	for _, m := range means {
		est.Mean += m
	}
	est.Mean /= float64(opts.Batches)
	var ss float64
	for _, m := range means {
		d := m - est.Mean
		ss += d * d
	}
	est.StdErr = math.Sqrt(ss / float64(opts.Batches-1) / float64(opts.Batches))
	est.Lo95 = est.Mean - 1.96*est.StdErr
	est.Hi95 = est.Mean + 1.96*est.StdErr
	return est, nil
}

type state struct {
	net    *srn.Net
	rng    *rand.Rand
	m      srn.Marking
	opts   Options
	events int64
	timed  []*srn.Transition
}

func timedTransitions(net *srn.Net) []*srn.Transition {
	var out []*srn.Transition
	for _, t := range net.Transitions() {
		if t.Kind() == srn.Timed {
			out = append(out, t)
		}
	}
	return out
}

// run advances the simulation by the given amount of simulated time,
// feeding occupancy intervals to acc (when non-nil).
func (s *state) run(duration float64, acc func(dt float64, m srn.Marking)) error {
	remaining := duration
	for remaining > 0 {
		if s.events >= s.opts.MaxEvents {
			return fmt.Errorf("sim: event cap %d exceeded", s.opts.MaxEvents)
		}
		// Exponential race among enabled timed transitions: with
		// memoryless delays, sampling one exponential with the total rate
		// and picking the winner proportionally to rate is equivalent.
		total := 0.0
		rates := make([]float64, len(s.timed))
		for i, t := range s.timed {
			if r, enabled := s.net.TimedRate(t, s.m); enabled {
				rates[i] = r
				total += r
			}
		}
		if total == 0 {
			return fmt.Errorf("%w: %s", ErrDeadlock, s.net.MarkingString(s.m))
		}
		dt := s.rng.ExpFloat64() / total
		if dt >= remaining {
			if acc != nil {
				acc(remaining, s.m)
			}
			return nil
		}
		if acc != nil {
			acc(dt, s.m)
		}
		remaining -= dt

		// Pick the firing transition proportionally to its rate.
		x := s.rng.Float64() * total
		idx := -1
		for i, r := range rates {
			if r == 0 {
				continue
			}
			x -= r
			if x <= 0 {
				idx = i
				break
			}
		}
		if idx < 0 { // numerical edge: take the last enabled
			for i := len(rates) - 1; i >= 0; i-- {
				if rates[i] > 0 {
					idx = i
					break
				}
			}
		}
		s.m = s.net.Fire(s.timed[idx], s.m)
		s.events++
		if err := s.settleImmediates(); err != nil {
			return err
		}
	}
	return nil
}

// settleImmediates fires enabled immediate transitions (one at a time,
// equiprobable among those enabled) until the marking is tangible.
func (s *state) settleImmediates() error {
	for chain := 0; ; chain++ {
		if chain > s.opts.MaxImmediateChain {
			return fmt.Errorf("%w at %s", ErrImmediateLoop, s.net.MarkingString(s.m))
		}
		enabled := s.net.EnabledImmediates(s.m)
		if len(enabled) == 0 {
			return nil
		}
		pick := min(int(s.rng.Float64()*float64(len(enabled))), len(enabled)-1)
		s.m = s.net.Fire(enabled[pick], s.m)
		s.events++
	}
}
