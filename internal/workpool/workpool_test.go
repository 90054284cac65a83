package workpool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7, 100, 200} {
		got, err := Map(workers, items, func(_ int, v int) (int, error) { return v * v, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, nil, func(_ int, v int) (int, error) { return v, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, err := Map(1, items, func(i int, _ int) (int, error) {
		if i >= 3 {
			return 0, fmt.Errorf("item %d", i)
		}
		return 0, nil
	})
	if err == nil || err.Error() != "item 3" {
		t.Fatalf("err = %v, want item 3", err)
	}
}

func TestMapStopsSchedulingAfterError(t *testing.T) {
	var calls atomic.Int64
	boom := errors.New("boom")
	items := make([]int, 1000)
	_, err := Map(2, items, func(i int, _ int) (int, error) {
		calls.Add(1)
		if i == 0 {
			return 0, boom
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := calls.Load(); n == int64(len(items)) {
		t.Errorf("all %d items ran despite early error", n)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	var mu sync.Mutex
	items := make([]int, 64)
	_, err := Map(workers, items, func(_ int, _ int) (int, error) {
		n := cur.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		runtime.Gosched()
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Clamp(0, 100) = %d, want GOMAXPROCS", got)
	}
	if got := Clamp(8, 3); got != 3 {
		t.Errorf("Clamp(8, 3) = %d, want 3", got)
	}
	if got := Clamp(2, 3); got != 2 {
		t.Errorf("Clamp(2, 3) = %d, want 2", got)
	}
}

func TestStreamDeliversEveryOutcome(t *testing.T) {
	items := []int{10, 20, 30, 40, 50}
	got := make(map[int]int)
	StreamCtx(context.Background(), 3, items, func(_ int, v int) (int, error) { return v * 2, nil },
		func(idx int, r int, err error) bool {
			if err != nil {
				t.Fatal(err)
			}
			got[idx] = r
			return true
		})
	if len(got) != len(items) {
		t.Fatalf("delivered %d outcomes, want %d", len(got), len(items))
	}
	for i, v := range items {
		if got[i] != v*2 {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], v*2)
		}
	}
}

func TestStreamStopsOnFalse(t *testing.T) {
	var calls atomic.Int64
	items := make([]int, 1000)
	delivered := 0
	StreamCtx(context.Background(), 2, items, func(i int, _ int) (int, error) {
		calls.Add(1)
		return i, nil
	}, func(int, int, error) bool {
		delivered++
		return delivered < 3
	})
	if delivered < 3 {
		t.Fatalf("delivered %d outcomes before stopping, want 3", delivered)
	}
	if n := calls.Load(); n == int64(len(items)) {
		t.Errorf("all %d items ran despite early stop", n)
	}
}

func TestStreamPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	var sawErr error
	StreamCtx(context.Background(), 2, []int{0, 1, 2, 3}, func(i int, _ int) (int, error) {
		if i == 2 {
			return 0, boom
		}
		return i, nil
	}, func(_ int, _ int, err error) bool {
		if err != nil {
			sawErr = err
			return false
		}
		return true
	})
	if !errors.Is(sawErr, boom) {
		t.Fatalf("collector saw %v, want boom", sawErr)
	}
}

// TestStreamCtxDropsQueuedWork: once the context is cancelled, workers
// must exit without picking up still-queued items — a cancelled
// caller's backlog must not cycle through fn (even a cheap fn call per
// queued item holds the worker slot and channel against other users of
// the pool).
func TestStreamCtxDropsQueuedWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	items := make([]int, 1000)
	StreamCtx(ctx, 1, items, func(i int, _ int) (int, error) {
		calls.Add(1)
		cancel() // cancel while the first item is in flight
		return i, nil
	}, func(int, int, error) bool { return true })
	// Worker 1 picked item 0 before the cancel; everything else was
	// queued and must have been dropped at the loop top.
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times after cancellation, want 1", n)
	}
}

// TestStreamCtxDeliversInFlightOutcome: items already in flight at
// cancellation finish normally and their outcomes still reach emit.
func TestStreamCtxDeliversInFlightOutcome(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered []int
	StreamCtx(ctx, 1, []int{7, 8, 9}, func(i int, v int) (int, error) {
		if i == 1 {
			cancel()
		}
		return v, nil
	}, func(_ int, r int, err error) bool {
		if err != nil {
			t.Fatal(err)
		}
		delivered = append(delivered, r)
		return true
	})
	// Items 0 and 1 ran (1 was in flight when it cancelled); item 2 was
	// dropped.
	if len(delivered) != 2 || delivered[0] != 7 || delivered[1] != 8 {
		t.Fatalf("delivered = %v, want [7 8]", delivered)
	}
}

// TestStreamCtxBackgroundDeliversAll: a background context never
// cancels, so every outcome is delivered.
func TestStreamCtxBackgroundDeliversAll(t *testing.T) {
	n := 0
	StreamCtx(context.Background(), 4, []int{1, 2, 3, 4, 5},
		func(_ int, v int) (int, error) { return v, nil },
		func(int, int, error) bool { n++; return true })
	if n != 5 {
		t.Fatalf("delivered %d outcomes, want 5", n)
	}
}

// streamSizes are the stream lengths the claim tests run: empty, a
// single item, fewer items than workers, exactly one item per worker,
// a run past the first doublings, and a long stream of full claims.
func streamSizes(workers int) []int { return []int{0, 1, 2, workers, 17, 1000} }

// TestStreamCtxClaimsEmitEveryIndexOnce: however the items are split
// into claimed runs, every index reaches emit exactly once, with its
// own outcome.
func TestStreamCtxClaimsEmitEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range streamSizes(workers) {
			items := make([]int, n)
			for i := range items {
				items[i] = 3 * i
			}
			seen := make([]int, n)
			StreamCtx(context.Background(), workers, items,
				func(_ int, v int) (int, error) { return v + 1, nil },
				func(idx int, r int, err error) bool {
					if err != nil || r != items[idx]+1 {
						t.Fatalf("workers=%d n=%d: item %d emitted %d, %v", workers, n, idx, r, err)
					}
					seen[idx]++
					return true
				})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: item %d emitted %d times", workers, n, i, c)
				}
			}
		}
	}
}

// TestStreamCtxFirstClaimIsOneItem: a worker's first claim is a single
// item, so the first outcome reaches emit after one fn call. Each of
// the first calls waits until every worker has started one: with
// one-item first claims those are items 0..workers-1, while a first
// claim of k items would start items 0, k, 2k, ... For one worker,
// item 1 waits until item 0 has been emitted, which a first claim
// holding both items could never deliver.
func TestStreamCtxFirstClaimIsOneItem(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range streamSizes(workers) {
			w := Clamp(workers, n)
			var mu sync.Mutex
			var started []int
			barrier := make(chan struct{})
			emitted := make(chan struct{})
			var once sync.Once
			StreamCtx(context.Background(), workers, make([]int, n),
				func(i int, _ int) (int, error) {
					mu.Lock()
					first := len(started) < w
					if first {
						started = append(started, i)
						if len(started) == w {
							close(barrier)
						}
					}
					mu.Unlock()
					if first {
						select {
						case <-barrier:
						case <-time.After(5 * time.Second):
							mu.Lock()
							k := len(started)
							mu.Unlock()
							t.Errorf("workers=%d n=%d: only %d of %d workers started an item", workers, n, k, w)
						}
					}
					if w == 1 && i == 1 {
						select {
						case <-emitted:
						case <-time.After(5 * time.Second):
							t.Errorf("n=%d: item 0 not emitted before item 1 finished", n)
						}
					}
					return i, nil
				},
				func(int, int, error) bool {
					once.Do(func() { close(emitted) })
					return true
				})
			slices.Sort(started)
			for i, idx := range started {
				if idx != i {
					t.Fatalf("workers=%d n=%d: first calls ran items %v, want 0..%d", workers, n, started, w-1)
				}
			}
		}
	}
}

// TestStreamCtxStopEndsClaims: once emit returns false, no worker
// claims another run and every run in progress ends at its next item,
// so at most one fn call per worker can start after the stop.
func TestStreamCtxStopEndsClaims(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range streamSizes(workers) {
			var stopped atomic.Bool
			var calls, late atomic.Int64
			delivered := 0
			StreamCtx(context.Background(), workers, make([]int, n),
				func(i int, _ int) (int, error) {
					calls.Add(1)
					if stopped.Load() {
						late.Add(1)
					}
					return i, nil
				},
				func(int, int, error) bool {
					delivered++
					if delivered == 2 {
						stopped.Store(true)
						return false
					}
					return true
				})
			if want := min(n, 2); delivered != want {
				t.Fatalf("workers=%d n=%d: emitted %d outcomes, want %d", workers, n, delivered, want)
			}
			if l := late.Load(); l > int64(Clamp(workers, n)) {
				t.Errorf("workers=%d n=%d: %d fn calls started after the stop", workers, n, l)
			}
			if n == 1000 && calls.Load() >= int64(n) {
				t.Errorf("workers=%d: all %d items ran despite the stop", workers, n)
			}
		}
	}
}

// TestStreamCtxStopEndsRunMidway: a stop that lands while a worker is
// inside a claimed run ends the run at its next item. One worker is
// held inside the run [15, 30] — item 15 has started, item 16 waits —
// while emit stops the stream at item 7, so of items 17..30 at most
// the one whose check raced the stop may start.
func TestStreamCtxStopEndsRunMidway(t *testing.T) {
	var stopped atomic.Bool
	var late atomic.Int64
	inRun, stop := make(chan struct{}), make(chan struct{})
	wait := func(c chan struct{}, what string) {
		select {
		case <-c:
		case <-time.After(5 * time.Second):
			t.Errorf("%s never happened", what)
		}
	}
	StreamCtx(context.Background(), 1, make([]int, 1000),
		func(i int, _ int) (int, error) {
			if stopped.Load() {
				late.Add(1)
			}
			switch i {
			case 15:
				close(inRun)
			case 16:
				wait(stop, "the stop")
			}
			return i, nil
		},
		func(idx int, _ int, _ error) bool {
			if idx != 7 {
				return true
			}
			wait(inRun, "item 15")
			stopped.Store(true)
			close(stop)
			return false
		})
	if l := late.Load(); l > 1 {
		t.Errorf("%d items of the run started after the stop, want at most 1", l)
	}
}

// TestStreamCtxCancelDropsClaimedItems: a cancellation mid-run drops
// the rest of the run and every unclaimed item. Only calls already in
// flight finish, at most one per worker, and their outcomes are still
// emitted.
func TestStreamCtxCancelDropsClaimedItems(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range streamSizes(workers) {
			if n == 0 {
				continue
			}
			ctx, cancel := context.WithCancel(context.Background())
			var calls, late atomic.Int64
			cancelAt := n / 2
			emitted := 0
			StreamCtx(ctx, workers, make([]int, n),
				func(i int, _ int) (int, error) {
					calls.Add(1)
					if ctx.Err() != nil {
						late.Add(1)
					}
					if i == cancelAt {
						cancel()
					}
					return i, nil
				},
				func(int, int, error) bool { emitted++; return true })
			cancel()
			if c := calls.Load(); int(c) != emitted {
				t.Errorf("workers=%d n=%d: %d fn calls but %d outcomes emitted", workers, n, c, emitted)
			}
			if l := late.Load(); l >= int64(Clamp(workers, n)) {
				t.Errorf("workers=%d n=%d: %d fn calls started after the cancel", workers, n, l)
			}
			if workers == 1 && calls.Load() != int64(cancelAt+1) {
				t.Errorf("n=%d: one worker ran %d items, want %d", n, calls.Load(), cancelAt+1)
			}
		}
	}
}

// TestStreamCtxClaimsDoubleToSixteen: one worker claims the runs
// [0], [1,2], [3,6], [7,14], [15,30], [31,46], [47,62], ...: the run
// size doubles up to 16 and stays there. A run reaches emit as one
// batch, so while item 30 runs the 16th outcome cannot be emitted
// (item 30 waits 50 ms for it, which is enough for a pool that never
// grows its runs to deliver it), and item 47, the first of a new run,
// can wait for all of items 0..46 to be emitted.
func TestStreamCtxClaimsDoubleToSixteen(t *testing.T) {
	emitted := 0
	reached := map[int]chan struct{}{16: make(chan struct{}), 47: make(chan struct{})}
	StreamCtx(context.Background(), 1, make([]int, 64),
		func(i int, _ int) (int, error) {
			switch i {
			case 30:
				select {
				case <-reached[16]:
					t.Error("the 16th outcome was emitted while item 30 ran")
				case <-time.After(50 * time.Millisecond):
				}
			case 47:
				select {
				case <-reached[47]:
				case <-time.After(5 * time.Second):
					t.Error("items 0..46 were not all emitted when item 47 started")
				}
			}
			return i, nil
		},
		func(int, int, error) bool {
			emitted++
			if c, ok := reached[emitted]; ok {
				close(c)
			}
			return true
		})
	if emitted != 64 {
		t.Fatalf("emitted %d outcomes, want 64", emitted)
	}
}
