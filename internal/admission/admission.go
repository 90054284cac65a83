// Package admission is redpatchd's load-shedding primitive: a
// per-endpoint-class concurrency limiter with a bounded FIFO wait
// queue and deadline-aware acquisition. At most Concurrency holders
// run at once; up to Queue callers wait in arrival order; everyone
// else is shed immediately with ErrQueueFull, and queued callers that
// outlive their wait budget (MaxWait or their context) are shed
// without ever occupying a slot. The HTTP layer maps sheds to
// 429 + Retry-After; the limiter itself is transport-agnostic.
package admission

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrQueueFull marks a request shed because the wait queue was at
// capacity at arrival.
var ErrQueueFull = errors.New("admission: queue full")

// ErrWaitBudget marks a request shed because it waited MaxWait without
// reaching the front of the queue.
var ErrWaitBudget = errors.New("admission: wait budget exhausted")

// Options configures a Limiter. The zero value is not useful; callers
// choose explicit limits (redpatchd's flags default them).
type Options struct {
	// Concurrency is the number of concurrently admitted holders
	// (minimum 1).
	Concurrency int
	// Queue bounds the FIFO wait queue; 0 sheds every request that
	// cannot be admitted immediately.
	Queue int
	// MaxWait bounds the time a request may sit queued; 0 means the
	// caller's context is the only wait bound.
	MaxWait time.Duration
}

// Stats is a snapshot of a limiter's state and lifetime counters.
type Stats struct {
	InFlight int // admitted and not yet released
	Waiting  int // queued
	// Admitted counts successful acquisitions; the Shed* counters the
	// rejections by reason.
	Admitted     uint64
	ShedFull     uint64
	ShedWait     uint64
	ShedCanceled uint64
}

// waiter is one queued acquisition; ready is closed by a releasing
// holder handing its slot over. A waiter no longer in the queue when
// its cancellation fires has been granted concurrently and must pass
// the slot on (see abandon).
type waiter struct {
	ready chan struct{}
}

// Limiter is a FIFO concurrency limiter. It is safe for concurrent
// use. The zero value is invalid; use New.
type Limiter struct {
	name string
	opts Options

	mu       sync.Mutex
	inflight int
	queue    []*waiter

	admitted     uint64
	shedFull     uint64
	shedWait     uint64
	shedCanceled uint64
}

// New builds a limiter. Concurrency below 1 is raised to 1; a negative
// Queue is treated as 0.
func New(name string, opts Options) *Limiter {
	if opts.Concurrency < 1 {
		opts.Concurrency = 1
	}
	if opts.Queue < 0 {
		opts.Queue = 0
	}
	return &Limiter{name: name, opts: opts}
}

// Name returns the class label the limiter was built with.
func (l *Limiter) Name() string { return l.name }

// Concurrency returns the configured concurrency cap.
func (l *Limiter) Concurrency() int { return l.opts.Concurrency }

// Stats returns a snapshot of the limiter's state.
func (l *Limiter) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		InFlight:     l.inflight,
		Waiting:      len(l.queue),
		Admitted:     l.admitted,
		ShedFull:     l.shedFull,
		ShedWait:     l.shedWait,
		ShedCanceled: l.shedCanceled,
	}
}

// Acquire admits the caller or sheds it. On success the returned
// release must be called exactly once when the work finishes (it is
// idempotent, so a deferred double call is harmless). Shed errors are
// ErrQueueFull, ErrWaitBudget, or the context's error; a queued caller
// whose deadline-aware wait ends never leaks its queue slot, and a
// grant racing a cancellation is handed to the next waiter rather than
// lost.
func (l *Limiter) Acquire(ctx context.Context) (release func(), err error) {
	l.mu.Lock()
	// FIFO: never jump an occupied queue even when a slot is free (a
	// releasing holder is about to hand it to the head waiter).
	if l.inflight < l.opts.Concurrency && len(l.queue) == 0 {
		l.inflight++
		l.admitted++
		l.mu.Unlock()
		return l.releaseOnce(), nil
	}
	if len(l.queue) >= l.opts.Queue {
		l.shedFull++
		l.mu.Unlock()
		return nil, ErrQueueFull
	}
	w := &waiter{ready: make(chan struct{})}
	l.queue = append(l.queue, w)
	l.mu.Unlock()

	var budget <-chan time.Time
	if l.opts.MaxWait > 0 {
		t := time.NewTimer(l.opts.MaxWait)
		defer t.Stop()
		budget = t.C
	}
	select {
	case <-w.ready:
		return l.releaseOnce(), nil
	case <-ctx.Done():
		return nil, l.abandon(w, ctx.Err(), &l.shedCanceled)
	case <-budget:
		return nil, l.abandon(w, ErrWaitBudget, &l.shedWait)
	}
}

// abandon removes a timed-out or cancelled waiter from the queue. If a
// releasing holder granted the waiter's slot first, the slot is
// released again (handing it onward) so it is never lost.
func (l *Limiter) abandon(w *waiter, cause error, counter *uint64) error {
	l.mu.Lock()
	for i, q := range l.queue {
		if q == w {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			*counter++
			l.mu.Unlock()
			return cause
		}
	}
	// Not queued: the grant raced the cancellation and this waiter owns
	// a slot. Count the admit-then-abandon as a shed all the same — the
	// caller is gone — and pass the slot to the next waiter.
	*counter++
	l.mu.Unlock()
	<-w.ready // already closed by the granter
	l.release()
	return cause
}

// releaseOnce wraps release in a sync.Once so a double call cannot
// free someone else's slot.
func (l *Limiter) releaseOnce() func() {
	var once sync.Once
	return func() { once.Do(l.release) }
}

// release frees one slot: the head waiter inherits it (inflight
// unchanged, admitted counted) or, with an empty queue, inflight
// drops.
func (l *Limiter) release() {
	l.mu.Lock()
	if len(l.queue) > 0 {
		w := l.queue[0]
		l.queue = l.queue[1:]
		l.admitted++
		l.mu.Unlock()
		close(w.ready)
		return
	}
	l.inflight--
	l.mu.Unlock()
}
