// Package faultinject is a deterministic, seeded fault injector for
// chaos testing: named sites threaded through the daemon's seams (the
// evaluator behind the engine, the fleet Resolver→Engine indirection,
// the cache-persistence I/O path, a handler) draw from per-site PRNGs
// and fail with a configured probability — an injected error, added
// latency, or a panic. The same seed and call sequence always produce
// the same faults, so a chaos suite's failures replay exactly.
//
// A nil *Injector is a valid no-op: production call sites invoke
// Hit/HitCtx unconditionally and pay one nil check when chaos is off.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected is the default error a site returns; configured sites may
// substitute their own via Site.Err. Callers can errors.Is against it
// to tell injected faults from organic ones in test assertions.
var ErrInjected = errors.New("faultinject: injected fault")

// Site configures one injection point. Probabilities are in [0, 1] and
// are drawn independently in a fixed order — latency, then panic, then
// error — so reconfiguring one probability never shifts another's draw
// sequence. The zero Site never fires, which is how a test turns a
// site back off to assert recovery.
type Site struct {
	// ErrProb is the probability of returning an error (Err, or
	// ErrInjected when nil).
	ErrProb float64
	Err     error
	// LatencyProb is the probability of sleeping Latency before any
	// other draw takes effect.
	LatencyProb float64
	Latency     time.Duration
	// PanicProb is the probability of panicking with the site name.
	PanicProb float64
}

type siteState struct {
	cfg Site
	rng *rand.Rand
}

// Injector holds the configured sites. It is safe for concurrent use;
// each site's PRNG draws under the injector lock, so the per-site draw
// sequence is deterministic even under concurrent hits (which fault
// fires on the k-th hit of a site is fixed by the seed, though which
// goroutine takes the k-th hit is scheduling-dependent).
type Injector struct {
	seed int64

	mu    sync.Mutex
	sites map[string]*siteState
}

// New builds an injector. Every site derives its own PRNG from seed and
// the site name, so adding a site never perturbs another's sequence.
func New(seed int64) *Injector {
	return &Injector{seed: seed, sites: make(map[string]*siteState)}
}

// Configure sets (or replaces) a site's fault configuration. The site's
// PRNG survives reconfiguration, so a test can dial a
// probability to zero mid-run and assert monotone recovery without
// resetting the draw sequence.
func (in *Injector) Configure(name string, cfg Site) {
	in.mu.Lock()
	defer in.mu.Unlock()
	st, ok := in.sites[name]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(name))
		st = &siteState{rng: rand.New(rand.NewSource(in.seed ^ int64(h.Sum64())))}
		in.sites[name] = st
	}
	st.cfg = cfg
}

// Hit runs the named site with no cancellation: HitCtx under a
// background context.
func (in *Injector) Hit(name string) error {
	return in.HitCtx(context.Background(), name)
}

// HitCtx runs the named site: maybe sleeps (respecting ctx — a
// cancelled wait returns ctx.Err, the closest analogue of a stalled
// dependency the caller gave up on), maybe panics, maybe returns the
// configured error. Unconfigured sites and nil injectors return nil
// without drawing.
func (in *Injector) HitCtx(ctx context.Context, name string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	st, ok := in.sites[name]
	if !ok {
		in.mu.Unlock()
		return nil
	}
	cfg := st.cfg
	// Fixed draw order (latency, panic, error) regardless of which
	// probabilities are set keeps the per-site sequence stable across
	// reconfigurations.
	sleep := st.rng.Float64() < cfg.LatencyProb
	panics := st.rng.Float64() < cfg.PanicProb
	errs := st.rng.Float64() < cfg.ErrProb
	in.mu.Unlock()

	if sleep && cfg.Latency > 0 {
		t := time.NewTimer(cfg.Latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if panics {
		panic(fmt.Sprintf("faultinject: injected panic at site %q", name))
	}
	if errs {
		if cfg.Err != nil {
			return cfg.Err
		}
		return fmt.Errorf("site %q: %w", name, ErrInjected)
	}
	return nil
}
