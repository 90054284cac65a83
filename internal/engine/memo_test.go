package engine

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"redpatch/internal/paperdata"
	"redpatch/internal/redundancy"
)

// memoEntryBudget is the most live heap one memo entry may hold: its
// 104-byte slot, its packed key and its share of the index and of the
// chunks' unused tails.
const memoEntryBudget = 140

// coldShape maps i onto the evaluate_cold benchmark's design space:
// dns, web, app and db each 1..16 replicas, web on its own stack or
// on webalt — 131,072 designs.
func coldShape(i int) paperdata.DesignSpec {
	const n = 16
	web := paperdata.TierSpec{Role: paperdata.RoleWeb, Replicas: i>>1%n + 1}
	if i&1 == 1 {
		web.Variant = paperdata.RoleWebAlt
	}
	i >>= 1
	return paperdata.DesignSpec{Tiers: []paperdata.TierSpec{
		{Role: paperdata.RoleDNS, Replicas: i/n%n + 1},
		web,
		{Role: paperdata.RoleApp, Replicas: i/(n*n)%n + 1},
		{Role: paperdata.RoleDB, Replicas: i/(n*n*n)%n + 1},
	}}
}

// liveHeapPerEntry fills a fresh engine over ev with fill and returns
// the live heap it holds per memo entry afterwards. The caller has run
// fill once already on another engine over ev, so the evaluator's own
// memos are warm and only the engine's growth is measured.
func liveHeapPerEntry(t *testing.T, ev DesignEvaluator, entries int, fill func(*Engine)) float64 {
	t.Helper()
	g, err := New(ev, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fill(g)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if g.Len() != entries {
		t.Fatalf("memo holds %d entries, want %d", g.Len(), entries)
	}
	runtime.KeepAlive(g)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(entries)
}

// TestMemoEntryBytes bounds the live heap each memo entry costs, over
// 20,000 distinct evaluate_cold-shape designs and 20,000 distinct
// rolling-8 rollout points: the memo keeps the served numbers, not the
// evaluator's whole result.
func TestMemoEntryBytes(t *testing.T) {
	const entries = 20000
	ev, err := redundancy.NewEvaluator(redundancy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	specs := make([]paperdata.DesignSpec, entries)
	for i := range specs {
		specs[i] = coldShape(i * 7919 % (1 << 17)) // 7919 is odd: a permutation
	}
	designs := func(g *Engine) {
		for _, sp := range specs {
			if _, err := g.EvaluateSpecCtx(context.Background(), sp); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Rolling-8 points of cold-shape designs, keeping each distinct
	// patched-count identity once.
	type point struct {
		spec      paperdata.DesignSpec
		fractions []float64
	}
	var points []point
	seen := make(map[string]bool)
	for i := 0; len(points) < entries; i++ {
		sp := coldShape(i * 7919 % (1 << 17))
		for k := range 9 {
			f := float64(k) / 8
			fr := []float64{f, f, f, f}
			patched, err := redundancy.PatchedCounts(sp, fr)
			if err != nil {
				t.Fatal(err)
			}
			if key := string(sp.AppendRolloutKey(nil, patched)); !seen[key] && len(points) < entries {
				seen[key] = true
				points = append(points, point{sp, fr})
			}
		}
	}
	rollouts := func(g *Engine) {
		for _, p := range points {
			if _, err := g.EvaluateRollout(ctx, p.spec, p.fractions); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, c := range []struct {
		name string
		fill func(*Engine)
	}{{"atomic", designs}, {"rollout", rollouts}} {
		warm, err := New(ev, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		c.fill(warm)
		per := liveHeapPerEntry(t, ev, entries, c.fill)
		t.Logf("%s: %.0f B of live heap per memo entry", c.name, per)
		if per > memoEntryBudget {
			t.Errorf("%s memo entries hold %.0f B of live heap each, budget %d B", c.name, per, memoEntryBudget)
		}
	}
}

// TestMemoSharedAcrossGoroutines drives every memo path at once —
// solves and hits of designs and rollout points, Lookup, Snapshot and
// Restore of the same keys — so the race detector sees them overlap.
// Whatever the interleaving, each key is solved at most once and the
// memo ends holding every key exactly once.
func TestMemoSharedAcrossGoroutines(t *testing.T) {
	c := &countingEvaluator{inner: paperEvaluator(t)}
	g, err := New(c, Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	specs := []paperdata.DesignSpec{specFor(t, 1, 1, 1, 1), specFor(t, 1, 2, 2, 1), specFor(t, 2, 1, 2, 1)}
	fr := []float64{0.5, 0.5, 0.5, 0.5}

	// A dump of the same keys, taken from another engine, to restore
	// while the solves run.
	other, err := New(paperEvaluator(t), Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if _, err := other.EvaluateSpecCtx(context.Background(), sp); err != nil {
			t.Fatal(err)
		}
	}
	var dump bytes.Buffer
	if _, err := other.Snapshot(&dump); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 {
				sp := specs[(w+i)%len(specs)]
				switch w % 3 {
				case 0:
					if _, err := g.EvaluateSpecCtx(context.Background(), sp); err != nil {
						t.Error(err)
					}
					if _, _, err := g.Lookup(ctx, sp); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := g.EvaluateRollout(ctx, sp, fr); err != nil {
						t.Error(err)
					}
				case 2:
					if _, err := g.Restore(bytes.NewReader(dump.Bytes())); err != nil {
						t.Error(err)
					}
					if _, err := g.Snapshot(io.Discard); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := c.calls.Load(); n > int64(len(specs)) {
		t.Errorf("%d designs took %d solves", len(specs), n)
	}
	if n := c.rolloutCalls.Load(); n != int64(len(specs)) {
		t.Errorf("%d rollout points took %d solves", len(specs), n)
	}
	if g.Len() != 2*len(specs) {
		t.Errorf("Len = %d, want %d designs and %d rollout points", g.Len(), len(specs), len(specs))
	}
}

// TestLookupServesOnlyCompletedEntries: Lookup never solves and never
// waits. A solve in flight and a design never solved come back cold,
// and an invalid spec as Validate's error; none of them moves a counter
// or interns a label. A completed entry is served as EvaluateSpec
// serves it, counted as a hit. A cold answer carries the key Lookup
// packed when the memo knows its labels, and Evaluate solves it.
func TestLookupServesOnlyCompletedEntries(t *testing.T) {
	gate := make(chan struct{})
	c := &countingEvaluator{inner: paperEvaluator(t), gate: gate}
	g, err := New(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sp := specFor(t, 1, 2, 2, 1)
	done := make(chan error, 1)
	go func() {
		_, err := g.EvaluateSpecCtx(context.Background(), sp)
		done <- err
	}()
	for c.calls.Load() == 0 {
		runtime.Gosched()
	}
	alt := paperdata.DesignSpec{Tiers: []paperdata.TierSpec{{Role: "web", Replicas: 1, Variant: "webalt"}}}
	for _, probe := range []paperdata.DesignSpec{sp, specFor(t, 3, 3, 3, 3), alt} {
		if _, cold, err := g.Lookup(ctx, probe); err != nil || !cold.Cold() {
			t.Fatalf("Lookup(%s) = cold %v, %v; want a cold answer for a design not completed", probe, cold.Cold(), err)
		} else if known := probe.Tiers[0].Variant == ""; (cold.keyLen > 0) != known {
			t.Errorf("Lookup(%s) packed key %q; the memo knows its labels: %v", probe, cold.key[:cold.keyLen], known)
		}
	}
	invalid := paperdata.DesignSpec{Tiers: []paperdata.TierSpec{{Role: "mainframe", Replicas: 1}}}
	if _, cold, err := g.Lookup(ctx, invalid); err == nil || err.Error() != invalid.Validate().Error() || cold.Cold() {
		t.Fatalf("Lookup(invalid) = cold %v, %v; want Validate's error", cold.Cold(), err)
	}
	if st := g.Stats(); st.Hits != 0 || st.Solves != 1 {
		t.Fatalf("missed lookups moved the counters: %+v", st)
	}
	if n := len(g.memo.labels); n != 4 {
		t.Fatalf("the memo holds %d labels after the lookups, want the 4 of the design in flight", n)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	want, err := g.EvaluateSpecCtx(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	got, cold, err := g.Lookup(ctx, sp)
	if err != nil || cold.Cold() || servedOf(got) != servedOf(want) {
		t.Fatalf("Lookup = %+v, cold %v, %v; EvaluateSpec served %+v", got, cold.Cold(), err, want)
	}
	if st := g.Stats(); st.Hits != 2 || st.Solves != 1 {
		t.Fatalf("stats = %+v, want 1 solve and 2 hits", st)
	}
	for _, probe := range []paperdata.DesignSpec{specFor(t, 3, 3, 3, 3), alt} {
		_, cold, err := g.Lookup(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := g.eval.EvaluateSpecContext(ctx, probe)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cold.Evaluate(ctx)
		if err != nil || servedOf(got) != servedOf(atomicEntry(want).report(resolve(probe))) {
			t.Fatalf("Evaluate(%s) = %+v, %v; the evaluator serves %+v", probe, got, err, want)
		}
		if got, cold, err := g.Lookup(ctx, probe); err != nil || cold.Cold() || servedOf(got) != servedOf(atomicEntry(want).report(resolve(probe))) {
			t.Fatalf("Lookup(%s) after Evaluate = cold %v, %v", probe, cold.Cold(), err)
		}
	}
}

// TestMemoLayoutHoldsNoPointers walks the element types of the memo's
// slab, index and arena and fails if any of them holds a pointer: the
// memo's bulk must stay memory the garbage collector never scans.
func TestMemoLayoutHoldsNoPointers(t *testing.T) {
	var m memo
	for _, typ := range []reflect.Type{
		reflect.TypeOf(m.slots).Elem().Elem(),
		reflect.TypeOf(m.index).Elem(),
		reflect.TypeOf(m.arena).Elem().Elem(),
	} {
		if path := pointerIn(typ, typ.String()); path != "" {
			t.Errorf("memo element type %s holds a pointer at %s", typ, path)
		}
	}
}

// pointerIn returns the path to the first pointer-shaped part of typ,
// or "" when it has none.
func pointerIn(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	default:
		return path + " (" + typ.Kind().String() + ")"
	}
}

// TestMemoFillsChunksToTheirCap stores enough keys to fill several
// slab chunks and arena chunks at their cap, plus one key longer than
// a full arena chunk, and reads every one back, by lookup and by
// iteration. FuzzMemo's short inputs stay in the first chunks.
func TestMemoFillsChunksToTheirCap(t *testing.T) {
	roles := paperdata.Roles()
	key := func(i int) memoKey {
		tiers := make([]paperdata.TierSpec, 8)
		for j := range tiers {
			tiers[j] = paperdata.TierSpec{Role: roles[j%4], Replicas: 1 + (i>>(2*j)&3)*1000}
		}
		tiers[0].Replicas = i + 1
		return memoKey{spec: paperdata.DesignSpec{Tiers: tiers}}
	}
	// Enough tiers for a packed key of more than one full arena chunk.
	long := memoKey{spec: paperdata.DesignSpec{Tiers: make([]paperdata.TierSpec, 1<<arenaOffBits)}}
	for j := range long.spec.Tiers {
		long.spec.Tiers[j] = paperdata.TierSpec{Role: paperdata.RoleWeb, Replicas: 1}
	}
	// Past the geometric slab chunks (2,032 slots) and three full ones;
	// about 150 KB of keys.
	const n = 6000
	m := newMemo()
	var keys []memoKey
	for i := range n {
		k := key(i)
		if i == n/2 {
			k = long
		}
		packed, _ := m.appendKey(nil, k.spec, k.patched, true)
		if !m.put(packed, entry{coa: float64(i)}, false) {
			t.Fatalf("key %d is not new", i)
		}
		keys = append(keys, k)
	}
	var fullSlabs, fullArenas, ownChunks int
	for _, c := range m.slots {
		if cap(c) == 1<<slabOffBits {
			fullSlabs++
		}
	}
	for _, c := range m.arena {
		switch {
		case cap(c) == 1<<arenaOffBits:
			fullArenas++
		case cap(c) > 1<<arenaOffBits:
			ownChunks++
		}
	}
	if fullSlabs < 3 || fullArenas < 2 || ownChunks != 1 {
		t.Fatalf("%d full slab chunks, %d full arena chunks and %d chunks of a long key; want at least 3, at least 2 and 1",
			fullSlabs, fullArenas, ownChunks)
	}
	for i, k := range keys {
		packed, _ := m.appendKey(nil, k.spec, k.patched, false)
		if v, ok := m.get(packed); !ok || v.coa != float64(i) {
			t.Fatalf("key %d reads %v, %v", i, v.coa, ok)
		}
	}
	var sc keyScratch
	i := 0
	for packed, v := range m.all() {
		text, _ := m.appendText(nil, packed, &sc)
		if want := keys[i].spec.Key(); string(text) != want || v.coa != float64(i) {
			t.Fatalf("iteration yields key %d as %.40q = %v", i, text, v.coa)
		}
		i++
	}
	if i != n {
		t.Fatalf("iteration yields %d keys, want %d", i, n)
	}
}
