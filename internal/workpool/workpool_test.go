package workpool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
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
