package faultinject

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hitSeq runs n hits against a fresh injector with one configured site
// and returns which hits errored.
func hitSeq(seed int64, cfg Site, n int) []bool {
	in := New(seed)
	in.Configure("s", cfg)
	out := make([]bool, n)
	for i := range out {
		out[i] = in.Hit("s") != nil
	}
	return out
}

// TestDeterministic: the same seed and call sequence produce the same
// fault sequence; a different seed produces a different one.
func TestDeterministic(t *testing.T) {
	cfg := Site{ErrProb: 0.3}
	a := hitSeq(42, cfg, 200)
	b := hitSeq(42, cfg, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hit %d: seed 42 diverged from itself", i)
		}
	}
	c := hitSeq(43, cfg, 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical 200-hit sequences")
	}
}

// TestErrRate: a 30% error site errs roughly 30% of the time and wraps
// ErrInjected so callers can tell injected faults apart.
func TestErrRate(t *testing.T) {
	in := New(1)
	in.Configure("s", Site{ErrProb: 0.3})
	errs := 0
	for i := 0; i < 1000; i++ {
		if err := in.Hit("s"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("injected error %v does not wrap ErrInjected", err)
			}
			errs++
		}
	}
	if errs < 200 || errs > 400 {
		t.Errorf("1000 hits at ErrProb 0.3 errored %d times", errs)
	}
}

// TestCustomErr: a configured Site.Err is returned verbatim.
func TestCustomErr(t *testing.T) {
	want := errors.New("disk full")
	in := New(1)
	in.Configure("s", Site{ErrProb: 1, Err: want})
	if err := in.Hit("s"); !errors.Is(err, want) {
		t.Errorf("Hit = %v, want %v", err, want)
	}
}

// TestPanic: a PanicProb 1 site panics with the site name.
func TestPanic(t *testing.T) {
	in := New(1)
	in.Configure("boom", Site{PanicProb: 1})
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("no panic from PanicProb 1")
		}
		if s, ok := p.(string); !ok || !strings.Contains(s, "boom") {
			t.Errorf("panic value %v does not name the site", p)
		}
	}()
	in.Hit("boom")
}

// TestLatencyCtx: an injected latency respects the caller's context —
// a cancelled wait returns ctx.Err instead of sleeping out the delay.
func TestLatencyCtx(t *testing.T) {
	in := New(1)
	in.Configure("slow", Site{LatencyProb: 1, Latency: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := in.HitCtx(ctx, "slow")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("HitCtx = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("cancelled wait took %v", d)
	}
}

// TestRecovery: dialing a site's probabilities to zero stops all
// faults — the monotone-recovery contract the chaos suite leans on.
func TestRecovery(t *testing.T) {
	in := New(7)
	in.Configure("s", Site{ErrProb: 1})
	if in.Hit("s") == nil {
		t.Fatal("ErrProb 1 did not err")
	}
	in.Configure("s", Site{})
	for i := 0; i < 100; i++ {
		if err := in.Hit("s"); err != nil {
			t.Fatalf("hit %d errored after recovery: %v", i, err)
		}
	}
}

// TestNilAndUnconfigured: nil injectors and unknown sites are free
// no-ops, so production call sites need no chaos-enabled branch.
func TestNilAndUnconfigured(t *testing.T) {
	var in *Injector
	if err := in.Hit("anything"); err != nil {
		t.Errorf("nil injector Hit = %v", err)
	}
	in = New(1)
	if err := in.Hit("unconfigured"); err != nil {
		t.Errorf("unconfigured site Hit = %v", err)
	}
}

// TestConcurrentHits: concurrent hits race-cleanly share a site and
// lose no draws: they fire as many faults as a serial replay.
func TestConcurrentHits(t *testing.T) {
	cfg := Site{ErrProb: 0.5}
	in := New(3)
	in.Configure("s", cfg)
	var errs atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				if in.Hit("s") != nil {
					errs.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	want := 0
	for _, e := range hitSeq(3, cfg, 2000) {
		if e {
			want++
		}
	}
	if got := errs.Load(); got != int64(want) {
		t.Errorf("concurrent errors = %d, want %d as in a serial replay", got, want)
	}
}

// TestConcurrentDeterministicStreams: every hit consumes its site's
// PRNG draws under the injector lock, so a parallel hit storm produces
// exactly the fault totals of a serial replay with the same seed — not
// just statistically similar ones — and one site's traffic never
// perturbs another's stream. (Which goroutine takes the k-th hit is
// scheduling-dependent; which fault the k-th hit fires is not.)
func TestConcurrentDeterministicStreams(t *testing.T) {
	const (
		seed    = 17
		workers = 16
		perW    = 125
		total   = workers * perW
	)
	cfg := map[string]Site{
		"a": {ErrProb: 0.25},
		"b": {ErrProb: 0.75, LatencyProb: 0.1, Latency: time.Nanosecond},
	}
	run := func(parallel bool) map[string]int64 {
		in := New(seed)
		for name, c := range cfg {
			in.Configure(name, c)
		}
		var a, b atomic.Int64
		hit := func() {
			if in.Hit("a") != nil {
				a.Add(1)
			}
			if in.Hit("b") != nil {
				b.Add(1)
			}
		}
		if parallel {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perW; i++ {
						hit()
					}
				}()
			}
			wg.Wait()
		} else {
			for i := 0; i < total; i++ {
				hit()
			}
		}
		return map[string]int64{"a": a.Load(), "b": b.Load()}
	}
	serial := run(false)
	concurrent := run(true)
	for name := range cfg {
		if serial[name] != concurrent[name] {
			t.Errorf("site %q: %d concurrent errors diverged from the serial same-seed replay's %d",
				name, concurrent[name], serial[name])
		}
	}
	if serial["a"] == 0 || serial["b"] == 0 {
		t.Errorf("replay exercised no faults: %+v", serial)
	}
}
