package engine

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"redpatch/internal/paperdata"
	"redpatch/internal/redundancy"
)

// rolloutFake is a deterministic rollout evaluator: the result encodes
// the patched counts so tests can tell solves apart, and calls count so
// memo behaviour is observable. fail makes every solve error.
type rolloutFake struct {
	calls atomic.Int64
	gate  chan struct{}
	fail  bool
}

func (f *rolloutFake) EvaluateSpecContext(_ context.Context, spec paperdata.DesignSpec) (redundancy.Result, redundancy.Provenance, error) {
	return redundancy.Result{Spec: spec}, redundancy.Provenance{}, nil
}

func (f *rolloutFake) EvaluatePatched(ctx context.Context, spec paperdata.DesignSpec, patched []int) (redundancy.RolloutResult, redundancy.Provenance, error) {
	f.calls.Add(1)
	if f.gate != nil {
		<-f.gate
	}
	if f.fail {
		return redundancy.RolloutResult{}, redundancy.Provenance{}, errors.New("solve failed")
	}
	coa := 1.0
	for _, p := range patched {
		coa -= 0.01 * float64(p)
	}
	return redundancy.RolloutResult{Spec: spec, Patched: patched, COA: coa}, redundancy.Provenance{}, nil
}

func TestEvaluateRolloutMemo(t *testing.T) {
	f := &rolloutFake{}
	g, err := New(f, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := paperdata.Design{Name: "m", DNS: 2, Web: 2, App: 2, DB: 2}.Spec()

	r1, err := g.EvaluateRollout(ctx, spec, []float64{0.5, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 1, 1, 1}; !reflect.DeepEqual(r1.Patched, want) {
		t.Fatalf("Patched = %v, want %v", r1.Patched, want)
	}
	// The same fractions, and different fractions ceiling to the same
	// patched counts, are both served from the memo.
	if _, err := g.EvaluateRollout(ctx, spec, []float64{0.5, 0.5, 0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	r3, err := g.EvaluateRollout(ctx, spec, []float64{0.4, 0.3, 0.2, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if n := f.calls.Load(); n != 1 {
		t.Errorf("3 equivalent points performed %d solves, want 1", n)
	}
	// Hits still carry the caller's own fractions, not the solver's.
	if want := []float64{0.4, 0.3, 0.2, 0.1}; !reflect.DeepEqual(r3.Fractions, want) {
		t.Errorf("hit Fractions = %v, want %v", r3.Fractions, want)
	}
	// A different patched-count identity solves again.
	if _, err := g.EvaluateRollout(ctx, spec, []float64{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if n := f.calls.Load(); n != 2 {
		t.Errorf("distinct point performed %d total solves, want 2", n)
	}
	st := g.Stats()
	if st.RolloutSolves != 2 || st.RolloutHits != 2 {
		t.Errorf("RolloutSolves/Hits = %d/%d, want 2/2", st.RolloutSolves, st.RolloutHits)
	}
	// The atomic design cache is untouched by rollout traffic.
	if st.Solves != 0 || st.Hits != 0 {
		t.Errorf("atomic Solves/Hits = %d/%d, want 0/0", st.Solves, st.Hits)
	}
}

func TestEvaluateRolloutErrorsNotMemoized(t *testing.T) {
	f := &rolloutFake{fail: true}
	g, err := New(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	spec := paperdata.Design{Name: "e", DNS: 1, Web: 1, App: 1, DB: 1}.Spec()
	fr := []float64{1, 1, 1, 1}
	if _, err := g.EvaluateRollout(ctx, spec, fr); err == nil {
		t.Fatal("want error from failing evaluator")
	}
	f.fail = false
	if _, err := g.EvaluateRollout(ctx, spec, fr); err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	if n := f.calls.Load(); n != 2 {
		t.Errorf("calls = %d, want 2 (error must not be memoized)", n)
	}
}

func TestRolloutSweepStreamsEveryPoint(t *testing.T) {
	f := &rolloutFake{}
	g, err := New(f, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec := paperdata.Design{Name: "s", DNS: 2, Web: 2, App: 2, DB: 2}.Spec()
	sched := redundancy.RolloutSchedule{Strategy: redundancy.RolloutRolling, Steps: 4}
	points, err := sched.Points(len(spec.Tiers))
	if err != nil {
		t.Fatal(err)
	}
	var steps []int
	lastDone := 0
	total, err := g.RolloutSweep(context.Background(), spec, sched,
		func(r RolloutReport) error {
			steps = append(steps, r.Step)
			return nil
		},
		func(done, total int) {
			if done <= lastDone || total != len(points) {
				t.Errorf("progress(%d, %d) after done=%d", done, total, lastDone)
			}
			lastDone = done
		})
	if err != nil || total != len(points) {
		t.Fatalf("sweep: %d points, %v; want %d", total, err, len(points))
	}
	sort.Ints(steps)
	want := make([]int, len(points))
	for i := range want {
		want[i] = i
	}
	if !reflect.DeepEqual(steps, want) {
		t.Errorf("streamed steps %v, want every index once", steps)
	}
	if lastDone != len(points) {
		t.Errorf("last progress done = %d, want %d", lastDone, len(points))
	}

	// An error from fn cancels the sweep.
	boom := errors.New("stop")
	_, err = g.RolloutSweep(context.Background(), spec, sched,
		func(RolloutReport) error { return boom }, nil)
	if !errors.Is(err, boom) {
		t.Errorf("sweep error = %v, want %v", err, boom)
	}

	// Validation: no points, invalid spec.
	if _, err := g.RolloutSweep(context.Background(), spec, redundancy.RolloutSchedule{},
		func(RolloutReport) error { return nil }, nil); err == nil {
		t.Error("empty point list should fail")
	}
	if _, err := g.RolloutSweep(context.Background(), paperdata.DesignSpec{}, sched,
		func(RolloutReport) error { return nil }, nil); err == nil {
		t.Error("invalid spec should fail")
	}
}

func TestRolloutSweepCancellation(t *testing.T) {
	f := &rolloutFake{gate: make(chan struct{})}
	g, err := New(f, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	spec := paperdata.Design{Name: "c", DNS: 2, Web: 2, App: 2, DB: 2}.Spec()
	sched := redundancy.RolloutSchedule{Strategy: redundancy.RolloutRolling, Steps: 8}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.RolloutSweep(ctx, spec, sched,
			func(RolloutReport) error { return nil }, nil)
		done <- err
	}()
	cancel()
	close(f.gate) // release any solver already holding the gate
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled sweep returned %v, want context.Canceled", err)
	}
}
