package engine

import (
	"bytes"
	"maps"
	"os"
	"slices"
	"testing"
)

// FuzzRestore feeds arbitrary bytes to Restore on an engine that already
// holds the version-3 seed dump. A rejected input must not panic, must
// report zero entries merged and must leave Len unchanged; an accepted
// one must add exactly the entries it reports, and the engine's
// snapshot must restore into a fresh engine that snapshots to the same
// bytes. Seeds: the real version-3 and version-2 dumps in testdata/ and
// every mangled dump of TestRestoreRejectsCorruptEntries.
func FuzzRestore(f *testing.F) {
	v3, err := os.ReadFile("testdata/snapshot-v3.json")
	if err != nil {
		f.Fatal(err)
	}
	v2, err := os.ReadFile("testdata/snapshot-v2.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v3)
	f.Add(v2)
	for _, name := range slices.Sorted(maps.Keys(corruptions)) {
		f.Add([]byte(corruptions[name](string(v3))))
	}
	// Restore never solves, so the engines need no real evaluator.
	never := evaluatorFunc(nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := New(never, Options{Fingerprint: "fuzz"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.Restore(bytes.NewReader(v3)); err != nil {
			t.Fatal(err)
		}
		before := g.Len()
		n, err := g.Restore(bytes.NewReader(data))
		if err != nil {
			if n != 0 || g.Len() != before {
				t.Fatalf("rejected input merged %d entries (Len %d, was %d): %v", n, g.Len(), before, err)
			}
			return
		}
		if g.Len() != before+n {
			t.Fatalf("Restore reported %d entries but Len went %d -> %d", n, before, g.Len())
		}
		var first bytes.Buffer
		if _, err := g.Snapshot(&first); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(never, Options{Fingerprint: "fuzz"})
		if err != nil {
			t.Fatal(err)
		}
		if m, err := fresh.Restore(bytes.NewReader(first.Bytes())); err != nil || m != g.Len() {
			t.Fatalf("restoring a snapshot: %d entries of %d, err %v", m, g.Len(), err)
		}
		var second bytes.Buffer
		if _, err := fresh.Snapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("snapshot -> restore -> snapshot differs:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
