// Package workpool is the bounded fan-out primitive under the design
// evaluation engine and the fleet planner: a fixed number of worker
// goroutines draining a slice, either collecting results in input order
// (Map) or handing them to a collector as they complete (StreamCtx).
// Fleet planning delegates to Map and the engine's sweeps to StreamCtx.
package workpool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Clamp normalizes a worker count: non-positive selects GOMAXPROCS, and
// the count never exceeds the number of items (n <= 0 leaves it alone).
func Clamp(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n > 0 && workers > n {
		workers = n
	}
	return workers
}

// Map applies fn to every item with at most workers goroutines and
// returns the results in input order. fn receives the item index and the
// item. On error, Map stops handing out new items, waits for in-flight
// calls, and returns the recorded error with the lowest index together
// with a nil slice. workers <= 0 selects GOMAXPROCS; workers == 1 is
// exactly the serial left-to-right loop.
func Map[T, R any](workers int, items []T, fn func(int, T) (R, error)) ([]R, error) {
	n := len(items)
	if n == 0 {
		return []R{}, nil
	}
	workers = Clamp(workers, n)

	out := make([]R, n)
	if workers == 1 {
		for i, it := range items {
			r, err := fn(i, it)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				r, err := fn(i, items[i])
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// maxClaim caps the run of consecutive items a StreamCtx worker claims
// at once.
const maxClaim = 16

// StreamCtx applies fn to every item with at most workers goroutines and
// hands each outcome to emit in completion order. emit runs on the
// calling goroutine only, so it needs no locking; returning false stops
// the stream — no new items are handed out, in-flight calls finish and
// their outcomes are discarded. StreamCtx returns once every worker has
// exited. workers <= 0 selects GOMAXPROCS.
//
// Each worker claims a run of consecutive items, one item at first and
// twice as many on each later claim up to 16, and hands the run's
// outcomes to the collector in one channel send: a long stream pays one
// hand-off per 16 items instead of one per item, while the first
// outcome and short streams arrive as soon as an item-at-a-time pool
// would deliver them. Stop and ctx are checked before every item, not
// only at a claim, so a claimed run ends early once either fires.
//
// Once ctx is done, workers exit before picking up their next item, so
// a cancelled caller's queued items are dropped instead of burning
// worker slots on fn calls whose outcomes nobody wants. Items already in flight finish
// normally (fn is not interrupted); their outcomes still reach emit.
// The engine's sweeps run on this so a disconnected sweep releases the
// pool at once rather than draining its whole backlog through fn.
func StreamCtx[T, R any](ctx context.Context, workers int, items []T, fn func(int, T) (R, error), emit func(idx int, r R, err error) bool) {
	n := len(items)
	if n == 0 {
		return
	}
	workers = Clamp(workers, n)

	type outcome struct {
		idx int
		r   R
		err error
	}
	ch := make(chan []outcome, workers)
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for size := 1; ; size = min(2*size, maxClaim) {
				lo := int(next.Add(int64(size))) - size
				if lo >= n {
					return
				}
				hi := min(lo+size, n)
				run := make([]outcome, 0, hi-lo)
				for i := lo; i < hi && !stop.Load() && ctx.Err() == nil; i++ {
					r, err := fn(i, items[i])
					run = append(run, outcome{idx: i, r: r, err: err})
				}
				if len(run) > 0 {
					ch <- run
				}
				if len(run) < hi-lo {
					return // stopped or cancelled mid-run
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	stopped := false
	for run := range ch {
		for _, o := range run {
			if !stopped && !emit(o.idx, o.r, o.err) {
				stopped = true
				stop.Store(true)
			}
		}
	}
}
