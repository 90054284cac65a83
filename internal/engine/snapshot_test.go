package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"redpatch/internal/paperdata"
	"redpatch/internal/redundancy"
)

func specFor(t *testing.T, dns, web, app, db int) paperdata.DesignSpec {
	t.Helper()
	spec := paperdata.Design{DNS: dns, Web: web, App: app, DB: db}.Spec()
	spec.Name = spec.CanonicalName()
	return spec
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
	want := make([]Report, len(specs))
	for i, sp := range specs {
		if want[i], err = g.EvaluateSpecCtx(context.Background(), sp); err != nil {
			t.Fatal(err)
		}
	}
	wantPoints := make([]RolloutReport, len(points))
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

// sameServedPoint reports whether two rollout reports serve the same
// point and the same numbers, bit for bit.
func sameServedPoint(a, b RolloutReport) bool {
	f := math.Float64bits
	return a.Step == b.Step &&
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

// corruptions mangle the version-3 seed dump
// (testdata/snapshot-v3.json), most of them in one entry; Restore must
// reject each one whole. A key mismatch is a rollout key over a
// design's numbers.
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
	"one key listed twice": func(s string) string {
		// The first entry, written again right after itself.
		start := strings.Index(s, `"entries":[`) + len(`"entries":[`)
		end := start + strings.Index(s[start:], `},{"key":`) + 1
		return s[:end] + "," + s[start:end] + s[end:]
	},
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
	// Equivalent JSON that Snapshot never writes: Restore reads only
	// Snapshot's layout.
	"trailing bytes after the closing brace": func(s string) string {
		return strings.TrimSuffix(s, "\n") + "}\n"
	},
	"pretty-printed": func(s string) string {
		var out bytes.Buffer
		if err := json.Indent(&out, []byte(s), "", "  "); err != nil {
			return "json.Indent: " + err.Error()
		}
		return out.String()
	},
	"reordered entry fields": func(s string) string {
		return strings.Replace(s, `"coa":0.9971106846166876,"sa":0.9978020437422631}`,
			`"sa":0.9978020437422631,"coa":0.9971106846166876}`, 1)
	},
	"truncated number": func(s string) string {
		return s[:strings.LastIndex(s, `"sa":`)+len(`"sa":0.`)]
	},
	"escaped key": func(s string) string {
		return strings.Replace(s, `"key":"dns:1;web:1;`, `"key":"dns:1;w\u0065b:1;`, 1)
	},
	"fractional count": func(s string) string {
		return strings.Replace(s, `"noev":22`, `"noev":1.5`, 1)
	},
	// Restore reads in parts, cut where entrySep opens an entry.
	"two adjacent entries swapped": func(s string) string {
		es := seedEntries(s)
		es[0], es[1] = es[1], es[0]
		return withEntries(s, es)
	},
	"duplicate across a part boundary": func(s string) string {
		// The first entry twice and nothing else: with two workers or
		// more, each copy opens a part of its own.
		es := seedEntries(s)
		return withEntries(s, []string{es[0], es[0]})
	},
	"key holding the entry separator": func(s string) string {
		// Enough copies of the separator in the first key that the
		// cuts of a three-part read land inside it.
		return strings.Replace(s, `"key":"dns:1;web/webalt:2;`, `"key":"dns:1`+strings.Repeat(`},{"key":`, 200)+`;web/webalt:2;`, 1)
	},
}

// seedEntries returns the entries of a dump as Snapshot writes it,
// each a whole JSON object.
func seedEntries(s string) []string {
	start := strings.Index(s, `"entries":[`) + len(`"entries":[`)
	end := strings.LastIndex(s, "]}")
	entries := strings.Split(s[start+1:end-1], "},{")
	for i, e := range entries {
		entries[i] = "{" + e + "}"
	}
	return entries
}

// withEntries replaces the entries of a dump as Snapshot writes it.
func withEntries(s string, entries []string) string {
	start := strings.Index(s, `"entries":[`) + len(`"entries":[`)
	return s[:start] + strings.Join(entries, ",") + s[strings.LastIndex(s, "]}"):]
}

// TestRestoreRejectsCorruptEntries: a dump with one malformed entry —
// a key whose kind does not match its numbers, an invalid or
// non-canonical key, a rollout point that does not fit its design,
// entries out of order — must not merge a single entry, and says
// ErrSnapshotCorrupt unless it is not JSON at all. Each dump is read in
// one part and in three, which the seed dump splits into.
func TestRestoreRejectsCorruptEntries(t *testing.T) {
	seed, err := os.ReadFile("testdata/snapshot-v3.json")
	if err != nil {
		t.Fatal(err)
	}
	if parts, err := decodeSnapshot(seed, "fuzz", 3); err != nil || len(parts) != 3 {
		t.Fatalf("three workers read the seed dump in %d parts, err %v; want 3", len(parts), err)
	}
	for name, mangle := range corruptions {
		t.Run(name, func(t *testing.T) {
			in := mangle(string(seed))
			if in == string(seed) {
				t.Fatal("mangle did not change the seed dump")
			}
			for _, workers := range []int{1, 3} {
				fresh, err := New(paperEvaluator(t), Options{Fingerprint: "fuzz", Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				n, err := fresh.Restore(strings.NewReader(in))
				if err == nil {
					t.Fatalf("%d workers: corrupt snapshot restored without error", workers)
				}
				if name != "not json" && !errors.Is(err, ErrSnapshotCorrupt) {
					t.Errorf("%d workers: err = %v, want ErrSnapshotCorrupt", workers, err)
				}
				if n != 0 || fresh.Len() != 0 {
					t.Fatalf("%d workers: corrupt snapshot merged %d entries (cache %d)", workers, n, fresh.Len())
				}
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

// TestRestoreSkipsInFlight: a key being solved when a dump is restored
// is left to its solve. The restore counts only the dump's other
// entries, and once the solve ends its live result is served, not the
// dump's stale one.
func TestRestoreSkipsInFlight(t *testing.T) {
	ctx := context.Background()
	ev := paperEvaluator(t)
	solving, other := specFor(t, 1, 1, 1, 1), specFor(t, 1, 2, 2, 1)
	warm, err := New(ev, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]served{}
	for _, sp := range []paperdata.DesignSpec{solving, other} {
		r, err := warm.EvaluateSpecCtx(ctx, sp)
		if err != nil {
			t.Fatal(err)
		}
		want[sp.Key()] = servedOf(r)
	}
	var buf bytes.Buffer
	if _, err := warm.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// The dump's entry for the design being solved is stale.
	entries, err := oracleDecode(buf.Bytes(), "")
	if err != nil || len(entries) != 2 || entries[0].Key != solving.Key() {
		t.Fatalf("dump entries %+v, err %v; want %s first of 2", entries, err, solving.Key())
	}
	entries[0].COA = 0.5
	buf.Reset()
	if err := json.NewEncoder(&buf).Encode(snapshotFile{SnapshotVersion, "", entries}); err != nil {
		t.Fatal(err)
	}

	gate := make(chan struct{})
	blocked := &countingEvaluator{inner: ev, gate: gate}
	g, err := New(blocked, Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := g.EvaluateSpecCtx(ctx, solving)
		done <- err
	}()
	for blocked.calls.Load() == 0 {
		runtime.Gosched()
	}
	n, err := g.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil || n != 1 {
		close(gate)
		t.Fatalf("restored %d entries, err %v; want 1, the design not being solved", n, err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, sp := range []paperdata.DesignSpec{solving, other} {
		r, err := g.EvaluateSpecCtx(ctx, sp)
		if err != nil {
			t.Fatal(err)
		}
		if servedOf(r) != want[sp.Key()] {
			t.Errorf("%s served %+v, want the live result %+v", sp.Key(), servedOf(r), want[sp.Key()])
		}
	}
	if calls := blocked.calls.Load(); calls != 1 || g.Len() != 2 {
		t.Errorf("%d solves and %d entries, want the one solve and 2 entries", calls, g.Len())
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

// TestRestoreAllocations pins what restoring a restarted service's dump
// costs: the 4,096 designs of the 1..8-per-tier classic space, and its
// first 1,024, each restored into an empty engine reading in two parts.
// The read buffer and the memo's index are allocated once, and each
// part's entries, arenas and interned labels once per part, so the
// entries cost nothing per entry: the larger dump costs more only by
// the memo chunks it adds, each at most one allocation for the chunk
// and one for the list that holds it. On Go 1.24 that is 97
// allocations for 4,096 entries and 90 for 1,024. The file is read into
// one buffer sized by Stat, never grown.
func TestRestoreAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	g, err := New(paperEvaluator(t), Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sweepAll(context.Background(), g, fullSpace(8)); err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	n, err := g.Snapshot(&dump)
	if err != nil || n != 4096 {
		t.Fatalf("snapshot wrote %d entries, err %v; want 4096", n, err)
	}
	// Restore reads the open file, as redpatchd hands it over.
	dir := t.TempDir()
	restore := func(entries []string) (allocs float64, chunks int) {
		path := filepath.Join(dir, fmt.Sprintf("dump-%d.json", len(entries)))
		if err := os.WriteFile(path, []byte(withEntries(dump.String(), entries)), 0o644); err != nil {
			t.Fatal(err)
		}
		var fresh *Engine
		allocs = testing.AllocsPerRun(5, func() {
			fresh, err = New(evaluatorFunc(nil), Options{Fingerprint: "fp", Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if m, err := fresh.Restore(f); err != nil || m != len(entries) {
				t.Fatalf("restored %d entries of %d, err %v", m, len(entries), err)
			}
		})
		return allocs, len(fresh.memo.slots) + len(fresh.memo.arena)
	}
	entries := seedEntries(dump.String())
	small, smallChunks := restore(entries[:1024])
	large, largeChunks := restore(entries)
	if grown := 2 * (largeChunks - smallChunks); large-small > float64(grown) {
		t.Errorf("restoring 4,096 entries made %v allocs, 1,024 made %v: %v more, want at most %d for %d more memo chunks",
			large, small, large-small, grown, largeChunks-smallChunks)
	}
	if large > 112 {
		t.Errorf("restoring 4,096 entries made %v allocs, want at most 112", large)
	}
	f, err := os.Open(filepath.Join(dir, "dump-4096.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reads := testing.AllocsPerRun(5, func() {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if b, err := readAll(f); err != nil || len(b) != dump.Len() {
			t.Fatalf("read %d bytes of %d, err %v", len(b), dump.Len(), err)
		}
	})
	if reads > 2 {
		t.Errorf("reading the dump made %v allocs, want 2: Stat's FileInfo and the buffer it sizes", reads)
	}
}

// TestSnapshotAllocations pins what a flush of a restarted service's
// memo costs: the 4,096 designs of the 1..8-per-tier classic space.
// The slots are copied once, every key is rendered once, into the one
// string the sort references index, and the dump is written in chunks
// from one reused buffer, so neither the count nor the output buffer
// grows with the entries: 9 or 10 allocations, and 0.73 MB, where a
// buffer holding the whole 1.07 MB dump made it 1.86 MB.
func TestSnapshotAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	g, err := New(paperEvaluator(t), Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sweepAll(context.Background(), g, fullSpace(8)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if n, err := g.Snapshot(io.Discard); err != nil || n != 4096 {
			t.Fatalf("snapshot wrote %d entries, err %v; want 4096", n, err)
		}
	})
	if allocs > 12 {
		t.Errorf("a 4,096-entry snapshot made %v allocs, want at most 12", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := g.Snapshot(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("a 4,096-entry snapshot allocated %d bytes", allocated)
	if allocated > 720<<10 {
		t.Errorf("a 4,096-entry snapshot allocated %d bytes, want at most %d", allocated, 720<<10)
	}
}

// snapshotFile is the dump as encoding/json writes it: FuzzRestore
// encodes the oracle's entries through it.
type snapshotFile struct {
	Version     int             `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	Entries     []snapshotEntry `json:"entries"`
}

// snapshotEntry is one memo entry: a design key (DesignSpec.Key) with
// both sides of the patch round, or a rollout key
// (DesignSpec.AppendRolloutKey) with the point's mixed-version
// security; COA and service availability either way.
type snapshotEntry struct {
	Key      string       `json:"key"`
	Before   *dumpSummary `json:"before,omitempty"`
	After    *dumpSummary `json:"after,omitempty"`
	Security *dumpSummary `json:"security,omitempty"`
	COA      float64      `json:"coa"`
	SA       float64      `json:"sa"`
}

// dumpSummary is a Summary under the dump's lower-case field names.
type dumpSummary struct {
	AIM  float64 `json:"aim"`
	ASP  float64 `json:"asp"`
	NoEV int     `json:"noev"`
	NoAP int     `json:"noap"`
	NoEP int     `json:"noep"`
}

// persist renders the memo entry v stored under text key k, a rollout
// point's when rollout is set.
func persist(k string, rollout bool, v *entry) snapshotEntry {
	se := snapshotEntry{Key: k, COA: v.coa, SA: v.sa}
	before, after := dumpSummary(v.before), dumpSummary(v.after)
	if rollout {
		se.Security = &before
	} else {
		se.Before, se.After = &before, &after
	}
	return se
}

// oracleDecode is the encoding/json reading of a dump: any field order,
// any whitespace, anything after the first value ignored, entries in
// any order. It checks the version, the fingerprint and every entry as
// Restore does, and FuzzRestore pins Restore's typed reader to it.
func oracleDecode(data []byte, fp string) ([]snapshotEntry, error) {
	var snap struct {
		Version     int             `json:"version"`
		Fingerprint string          `json:"fingerprint"`
		Entries     json.RawMessage `json:"entries"`
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return nil, err
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("%w: %d", ErrSnapshotVersion, snap.Version)
	}
	if snap.Fingerprint != fp {
		return nil, fmt.Errorf("%w: %q", ErrSnapshotFingerprint, snap.Fingerprint)
	}
	var entries []snapshotEntry
	if err := json.Unmarshal(snap.Entries, &entries); err != nil {
		return nil, fmt.Errorf("%w: entries: %v", ErrSnapshotCorrupt, err)
	}
	seen := make(map[string]bool, len(entries))
	for _, se := range entries {
		if err := oracleCheck(se); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
		if seen[se.Key] {
			return nil, fmt.Errorf("%w: key %q appears twice", ErrSnapshotCorrupt, se.Key)
		}
		seen[se.Key] = true
	}
	return entries, nil
}

// oracleCheck checks that an entry's key parses to a valid spec (and
// rollout point), is in the canonical form the engine renders, and
// that its shape matches the key's kind.
func oracleCheck(se snapshotEntry) error {
	_, patched, err := refCanonical(se.Key)
	if err != nil {
		return err
	}
	if patched == nil {
		if se.Before == nil || se.After == nil || se.Security != nil {
			return fmt.Errorf("design key %q needs before and after, and no security", se.Key)
		}
		return nil
	}
	if se.Security == nil || se.Before != nil || se.After != nil {
		return fmt.Errorf("rollout key %q needs security, and no before or after", se.Key)
	}
	return nil
}

// persisted renders decoded entries as the writer's entries, in dump
// order, for comparison with the oracle's.
func persisted(parts []restoredPart) []snapshotEntry {
	out := []snapshotEntry{}
	var sc keyScratch
	for i := range parts {
		p := &parts[i]
		var labels memo
		for _, t := range p.labels {
			labels.labels = append(labels.labels, tierLabel{t.Role, t.Stack()})
		}
		for j := range p.entries {
			e := &p.entries[j]
			text, rollout := labels.appendText(nil, p.keys[e.start:e.end], &sc)
			out = append(out, persist(string(text), rollout, &e.val))
		}
	}
	return out
}

// TestSnapshotNonFiniteWritesNothing: an entry holding a number JSON
// cannot carry fails the snapshot before its first byte, even when the
// entries sorted before it fill several chunks.
func TestSnapshotNonFiniteWritesNothing(t *testing.T) {
	g, err := New(evaluatorFunc(func(s paperdata.DesignSpec) (redundancy.Result, error) {
		r := redundancy.Result{Spec: s, COA: 0.5, ServiceAvailability: 0.9}
		if s.Key() == "dns:5;web:5;app:5;db:5" { // the last key in order
			r.COA = math.NaN()
		}
		return r, nil
	}), Options{Fingerprint: "fp"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sweepAll(context.Background(), g, fullSpace(5)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if n, err := g.Snapshot(&out); err == nil || n != 0 || out.Len() != 0 {
		t.Fatalf("snapshot with a NaN entry = %d entries, %d bytes, %v; want an error and nothing written", n, out.Len(), err)
	}
}
