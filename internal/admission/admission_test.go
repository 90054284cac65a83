package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// acquireOrFatal admits immediately or fails the test.
func acquireOrFatal(t *testing.T, l *Limiter) func() {
	t.Helper()
	release, err := l.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	return release
}

// TestImmediateAdmit: under the cap, acquisition is immediate and
// release frees the slot.
func TestImmediateAdmit(t *testing.T) {
	l := New("t", Options{Concurrency: 2, Queue: 0})
	r1 := acquireOrFatal(t, l)
	r2 := acquireOrFatal(t, l)
	if st := l.Stats(); st.InFlight != 2 || st.Admitted != 2 {
		t.Fatalf("stats = %+v", st)
	}
	r1()
	r2()
	if st := l.Stats(); st.InFlight != 0 {
		t.Fatalf("inflight after release = %d", st.InFlight)
	}
}

// TestQueueFullShed: with C holders and Q waiters, the next caller is
// shed immediately with ErrQueueFull.
func TestQueueFullShed(t *testing.T) {
	l := New("t", Options{Concurrency: 1, Queue: 1})
	release := acquireOrFatal(t, l)
	defer release()

	queued := make(chan struct{})
	go func() {
		close(queued)
		r, err := l.Acquire(context.Background())
		if err == nil {
			r()
		}
	}()
	<-queued
	waitFor(t, func() bool { return l.Stats().Waiting == 1 })

	start := time.Now()
	_, err := l.Acquire(context.Background())
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Acquire = %v, want ErrQueueFull", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("shed took %v, want fail-fast", d)
	}
	if st := l.Stats(); st.ShedFull != 1 {
		t.Errorf("ShedFull = %d, want 1", st.ShedFull)
	}
}

// TestFIFOOrder: queued waiters are granted in arrival order.
func TestFIFOOrder(t *testing.T) {
	l := New("t", Options{Concurrency: 1, Queue: 8})
	release := acquireOrFatal(t, l)

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		waitFor(t, func() bool { return l.Stats().Waiting == i })
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := l.Acquire(context.Background())
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			r()
		}(i)
		// Ensure waiter i is queued before launching i+1.
		waitFor(t, func() bool { return l.Stats().Waiting == i+1 })
	}
	release()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order = %v, want FIFO", order)
		}
	}
}

// TestWaitBudget: a queued caller past MaxWait is shed with
// ErrWaitBudget and leaves no queue slot behind.
func TestWaitBudget(t *testing.T) {
	l := New("t", Options{Concurrency: 1, Queue: 4, MaxWait: 20 * time.Millisecond})
	release := acquireOrFatal(t, l)
	defer release()

	_, err := l.Acquire(context.Background())
	if !errors.Is(err, ErrWaitBudget) {
		t.Fatalf("Acquire = %v, want ErrWaitBudget", err)
	}
	if st := l.Stats(); st.Waiting != 0 || st.ShedWait != 1 {
		t.Errorf("stats after budget shed = %+v", st)
	}
}

// TestCancelWhileQueued: a cancelled waiter is removed from the queue
// without consuming a slot.
func TestCancelWhileQueued(t *testing.T) {
	l := New("t", Options{Concurrency: 1, Queue: 4})
	release := acquireOrFatal(t, l)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := l.Acquire(ctx)
		errc <- err
	}()
	waitFor(t, func() bool { return l.Stats().Waiting == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire = %v, want Canceled", err)
	}
	if st := l.Stats(); st.Waiting != 0 || st.ShedCanceled != 1 {
		t.Errorf("stats after cancel = %+v", st)
	}
	// The slot is still usable.
	release()
	r := acquireOrFatal(t, l)
	r()
}

// TestGrantCancelRace: hammer release-grants against waiter
// cancellations; no slot may ever be lost (the limiter must always be
// able to admit Concurrency holders afterwards). Run with -race.
func TestGrantCancelRace(t *testing.T) {
	l := New("t", Options{Concurrency: 2, Queue: 16})
	var wg sync.WaitGroup
	var admitted atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(g%3)*time.Millisecond)
				r, err := l.Acquire(ctx)
				if err == nil {
					admitted.Add(1)
					r()
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	if st := l.Stats(); st.InFlight != 0 || st.Waiting != 0 {
		t.Fatalf("leaked state after race: %+v", st)
	}
	// Both slots survived the churn.
	r1 := acquireOrFatal(t, l)
	r2 := acquireOrFatal(t, l)
	r1()
	r2()
	if admitted.Load() == 0 {
		t.Error("no acquisition ever succeeded")
	}
}

// TestReleaseIdempotent: calling release twice frees one slot, not two.
func TestReleaseIdempotent(t *testing.T) {
	l := New("t", Options{Concurrency: 1, Queue: 0})
	r := acquireOrFatal(t, l)
	r()
	r()
	if st := l.Stats(); st.InFlight != 0 {
		t.Fatalf("inflight = %d after double release", st.InFlight)
	}
	r2 := acquireOrFatal(t, l)
	defer r2()
	if _, err := l.Acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("double release minted a slot: %v", err)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
