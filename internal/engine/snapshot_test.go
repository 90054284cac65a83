package engine

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"redpatch/internal/paperdata"
	"redpatch/internal/redundancy"
)

func specFor(t *testing.T, dns, web, app, db int) paperdata.DesignSpec {
	t.Helper()
	return paperdata.Design{
		Name: paperdata.DefaultName(dns, web, app, db),
		DNS:  dns, Web: web, App: app, DB: db,
	}.Spec()
}

// TestSnapshotRoundTrip dumps a warmed engine, designs and rollout
// points, and restores it into a fresh one: the restored engine must
// answer from the memo (zero solves) with every served number
// bit-identical to what the warm engine served.
func TestSnapshotRoundTrip(t *testing.T) {
	ev := paperEvaluator(t)
	counted := &countingEvaluator{inner: ev}
	g, err := New(counted, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	specs := []paperdata.DesignSpec{
		specFor(t, 1, 2, 2, 1),
		specFor(t, 1, 1, 1, 1),
		specFor(t, 2, 2, 2, 2),
	}
	points := [][]float64{{0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1}}
	want := make([]redundancy.Result, len(specs))
	for i, sp := range specs {
		if want[i], err = g.EvaluateSpecCtx(context.Background(), sp); err != nil {
			t.Fatal(err)
		}
	}
	wantPoints := make([]redundancy.RolloutResult, len(points))
	for i, fr := range points {
		if wantPoints[i], err = g.EvaluateRollout(ctx, specs[2], fr); err != nil {
			t.Fatal(err)
		}
	}
	entries := len(specs) + len(points)
	if n := g.Len(); n != entries {
		t.Fatalf("Len = %d, want %d", n, entries)
	}

	var buf bytes.Buffer
	n, err := g.Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != entries {
		t.Fatalf("snapshot wrote %d entries, want %d", n, entries)
	}

	fresh := &countingEvaluator{inner: ev}
	g2, err := New(fresh, Options{Fingerprint: "fp-a"})
	if err != nil {
		t.Fatal(err)
	}
	restored, err := g2.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored != entries || g2.Len() != entries {
		t.Fatalf("restored %d entries (Len %d), want %d", restored, g2.Len(), entries)
	}
	for i, sp := range specs {
		got, err := g2.EvaluateSpecCtx(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if servedOf(got) != servedOf(want[i]) {
			t.Fatalf("restored result for %s differs:\ngot  %+v\nwant %+v", sp, got, want[i])
		}
	}
	for i, fr := range points {
		got, err := g2.EvaluateRollout(ctx, specs[2], fr)
		if err != nil {
			t.Fatal(err)
		}
		if !sameServedPoint(got, wantPoints[i]) {
			t.Fatalf("restored rollout point %v differs:\ngot  %+v\nwant %+v", fr, got, wantPoints[i])
		}
	}
	if calls := fresh.calls.Load() + fresh.rolloutCalls.Load(); calls != 0 {
		t.Fatalf("restored engine re-solved %d entries", calls)
	}
	st := g2.Stats()
	if st.Solves != 0 || st.Hits != uint64(len(specs)) || st.RolloutSolves != 0 || st.RolloutHits != uint64(len(points)) {
		t.Fatalf("stats after restored serves = %+v", st)
	}
}

// sameServedPoint reports whether two rollout results serve the same
// point and the same numbers, bit for bit.
func sameServedPoint(a, b redundancy.RolloutResult) bool {
	f := math.Float64bits
	return a.Spec.Key() == b.Spec.Key() && a.Spec.Name == b.Spec.Name &&
		slices.Equal(a.Fractions, b.Fractions) && slices.Equal(a.Patched, b.Patched) &&
		f(a.Security.AIM) == f(b.Security.AIM) && f(a.Security.ASP) == f(b.Security.ASP) &&
		a.Security.NoEV == b.Security.NoEV && a.Security.NoAP == b.Security.NoAP &&
		a.Security.NoEP == b.Security.NoEP &&
		f(a.COA) == f(b.COA) && f(a.ServiceAvailability) == f(b.ServiceAvailability)
}

// TestRestoreRejectsFingerprintMismatch: a dump taken under a different
// vulnerability dataset / policy / schedule (a different fingerprint)
// must be rejected, never merged.
func TestRestoreRejectsFingerprintMismatch(t *testing.T) {
	ev := paperEvaluator(t)
	g, err := New(ev, Options{Fingerprint: "dataset-A,thr=8"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.EvaluateSpecCtx(context.Background(), specFor(t, 1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	other, err := New(ev, Options{Fingerprint: "dataset-B,thr=8"})
	if err != nil {
		t.Fatal(err)
	}
	n, err := other.Restore(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrSnapshotFingerprint) {
		t.Fatalf("err = %v, want ErrSnapshotFingerprint", err)
	}
	if n != 0 || other.Len() != 0 {
		t.Fatalf("mismatched snapshot merged %d entries (cache %d)", n, other.Len())
	}
}

// TestRestoreRejectsVersionMismatch: dumps of any other format version
// fail with ErrSnapshotVersion and merge nothing — a future version, and
// a real version-2 dump, which has no reader: a restarted daemon given
// one starts cold.
func TestRestoreRejectsVersionMismatch(t *testing.T) {
	v2, err := os.ReadFile("testdata/snapshot-v2.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string]string{
		"future": `{"version":99,"fingerprint":"fuzz","entries":[]}`,
		"v2":     string(v2),
	} {
		t.Run(name, func(t *testing.T) {
			g, err := New(paperEvaluator(t), Options{Fingerprint: "fuzz"})
			if err != nil {
				t.Fatal(err)
			}
			n, err := g.Restore(strings.NewReader(in))
			if !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("err = %v, want ErrSnapshotVersion", err)
			}
			if n != 0 || g.Len() != 0 {
				t.Fatalf("restored %d entries (Len %d) from the wrong version", n, g.Len())
			}
		})
	}
}

// corruptions mangle one entry of the version-3 seed dump
// (testdata/snapshot-v3.json); Restore must reject each one whole. A
// key mismatch is a rollout key over a design's numbers.
var corruptions = map[string]func(string) string{
	"design key holding a rollout point": func(s string) string {
		return strings.Replace(s, `"key":"dns:1;web:2;app:2;db:1|rollout=1,1,1,1"`, `"key":"dns:1;web:2;app:2;db:1"`, 1)
	},
	"key mismatch": func(s string) string {
		return strings.Replace(s, `"key":"dns:1;web:1;app:1;db:1"`, `"key":"dns:1;web:1;app:1;db:1|rollout=1,1,1,1"`, 1)
	},
	"invalid spec": func(s string) string {
		return strings.Replace(s, `"key":"dns:1;web:1;`, `"key":"dns:0;web:1;`, 1)
	},
	"not json": func(string) string { return "not a snapshot" },
	"non-canonical key": func(s string) string {
		return strings.Replace(s, `"key":"dns:1;web:1;`, `"key":"dns:01;web:1;`, 1)
	},
	"non-canonical variant": func(s string) string {
		return strings.Replace(s, `"key":"dns:1;web:1;`, `"key":"dns:1;web/web:1;`, 1)
	},
	"unknown role": func(s string) string {
		return strings.Replace(s, `"key":"dns:1;web:1;`, `"key":"mainframe:1;web:1;`, 1)
	},
	"unknown variant": func(s string) string {
		return strings.Replace(s, `"key":"dns:1;web/webalt:2;`, `"key":"dns:1;web/iis:2;`, 1)
	},
	"rollout patches more than the replicas": func(s string) string {
		return strings.Replace(s, `|rollout=1,1,1,1"`, `|rollout=1,3,1,1"`, 1)
	},
	"rollout with too few tier counts": func(s string) string {
		return strings.Replace(s, `|rollout=1,1,1,1"`, `|rollout=1,1,1"`, 1)
	},
	"rollout with too many tier counts": func(s string) string {
		return strings.Replace(s, `|rollout=1,1,1,1"`, `|rollout=1,1,1,1,0"`, 1)
	},
	"entries not a list": func(s string) string {
		return strings.Replace(s, `"entries":[`, `"entries":7,"x":[`, 1)
	},
}

// TestRestoreRejectsCorruptEntries: a dump with one malformed entry —
// a key whose kind does not match its numbers, an invalid or
// non-canonical key, a rollout point that does not fit its design —
// must not merge a single entry, and says ErrSnapshotCorrupt unless it
// is not JSON at all.
func TestRestoreRejectsCorruptEntries(t *testing.T) {
	seed, err := os.ReadFile("testdata/snapshot-v3.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, mangle := range corruptions {
		t.Run(name, func(t *testing.T) {
			in := mangle(string(seed))
			if in == string(seed) {
				t.Fatal("mangle did not change the seed dump")
			}
			fresh, err := New(paperEvaluator(t), Options{Fingerprint: "fuzz"})
			if err != nil {
				t.Fatal(err)
			}
			n, err := fresh.Restore(strings.NewReader(in))
			if err == nil {
				t.Fatal("corrupt snapshot restored without error")
			}
			if name != "not json" && !errors.Is(err, ErrSnapshotCorrupt) {
				t.Errorf("err = %v, want ErrSnapshotCorrupt", err)
			}
			if n != 0 || fresh.Len() != 0 {
				t.Fatalf("corrupt snapshot merged %d entries (cache %d)", n, fresh.Len())
			}
		})
	}
}

// TestRestoreSeedDump: the committed version-3 seed dump restores whole
// — three designs, one of them a variant, and three rollout points —
// serves a rollout point without solving, and snapshots back to the
// same bytes.
func TestRestoreSeedDump(t *testing.T) {
	seed, err := os.ReadFile("testdata/snapshot-v3.json")
	if err != nil {
		t.Fatal(err)
	}
	counted := &countingEvaluator{inner: paperEvaluator(t)}
	g, err := New(counted, Options{Fingerprint: "fuzz"})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := g.Restore(bytes.NewReader(seed)); err != nil || n != 6 {
		t.Fatalf("restored %d entries, err %v; want 6", n, err)
	}
	r, err := g.EvaluateRollout(context.Background(), specFor(t, 1, 2, 2, 1), []float64{0.5, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Security.NoEV != 17 || counted.rolloutCalls.Load() != 0 {
		t.Fatalf("restored rollout point served NoEV %d after %d solves", r.Security.NoEV, counted.rolloutCalls.Load())
	}
	var buf bytes.Buffer
	if _, err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), seed) {
		t.Fatalf("re-snapshot differs from the seed dump:\n%s\n%s", buf.Bytes(), seed)
	}
}

// TestRestoreSkipsExistingEntries: live results win over persisted
// ones; restoring on top of a warm cache only fills the gaps.
func TestRestoreSkipsExistingEntries(t *testing.T) {
	ev := paperEvaluator(t)
	g, err := New(ev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []paperdata.DesignSpec{specFor(t, 1, 1, 1, 1), specFor(t, 1, 2, 2, 1)} {
		if _, err := g.EvaluateSpecCtx(context.Background(), sp); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	g2, err := New(ev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g2.EvaluateSpecCtx(context.Background(), specFor(t, 1, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	restored, err := g2.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored = %d, want 1 (the missing design only)", restored)
	}
	if g2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g2.Len())
	}
}

// TestSnapshotSkipsInFlight: an entry still being solved is not
// serialized — the snapshot holds completed results only.
func TestSnapshotSkipsInFlight(t *testing.T) {
	gate := make(chan struct{})
	blocked := &countingEvaluator{inner: paperEvaluator(t), gate: gate}
	g, err := New(blocked, Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := g.EvaluateSpecCtx(context.Background(), specFor(t, 1, 1, 1, 1))
		done <- err
	}()
	// Wait for the solve to be registered in-flight.
	for blocked.calls.Load() == 0 {
	}
	var buf bytes.Buffer
	n, err := g.Snapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("snapshot wrote %d in-flight entries", n)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if n, err = g.Snapshot(&buf); err != nil || n != 1 {
		t.Fatalf("after completion: n = %d, err = %v", n, err)
	}
}

// TestSnapshotDeterministic: equal caches produce byte-identical dumps
// regardless of evaluation order.
func TestSnapshotDeterministic(t *testing.T) {
	ev := paperEvaluator(t)
	specs := []paperdata.DesignSpec{
		specFor(t, 1, 1, 1, 1), specFor(t, 2, 1, 1, 1), specFor(t, 1, 2, 1, 1),
	}
	dump := func(order []int) string {
		g, err := New(ev, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range order {
			if _, err := g.EvaluateSpecCtx(context.Background(), specs[i]); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if _, err := g.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if dump([]int{0, 1, 2}) != dump([]int{2, 0, 1}) {
		t.Fatal("snapshot bytes depend on evaluation order")
	}
}
