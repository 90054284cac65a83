package engine

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"slices"
	"testing"
)

// FuzzRestore feeds arbitrary bytes to Restore on an engine that already
// holds the version-3 seed dump. A rejected input must not panic, must
// report zero entries merged and must leave Len unchanged; an accepted
// one must add exactly the entries it reports. Restore's typed reader
// is pinned to oracleDecode, the encoding/json reading: what the reader
// accepts, the oracle accepts with equal entries, and whatever entries
// the oracle accepts, written out as Snapshot writes them, the reader
// accepts. Every snapshot the engine then takes must restore into a
// fresh engine that snapshots to the same bytes. Seeds: the real
// version-3 and version-2 dumps in testdata/ and every mangled dump of
// TestRestoreRejectsCorruptEntries.
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
		} else if g.Len() != before+n {
			t.Fatalf("Restore reported %d entries but Len went %d -> %d", n, before, g.Len())
		}

		got, rerr := decodeSnapshot(data, "fuzz")
		want, oerr := oracleDecode(data, "fuzz")
		if (rerr == nil) != (err == nil) {
			t.Fatalf("Restore says %v, its reader %v", err, rerr)
		}
		if rerr == nil {
			if oerr != nil {
				t.Fatalf("reader accepts what the oracle rejects: %v", oerr)
			}
			if !reflect.DeepEqual(persisted(got), want) {
				t.Fatalf("reader and oracle decode different entries:\n%+v\n%+v", persisted(got), want)
			}
		}
		if oerr == nil {
			if want == nil {
				want = []snapshotEntry{} // Snapshot writes [], never null
			}
			var canon bytes.Buffer
			if err := json.NewEncoder(&canon).Encode(snapshotFile{SnapshotVersion, "fuzz", want}); err != nil {
				t.Fatal(err)
			}
			got, err := decodeSnapshot(canon.Bytes(), "fuzz")
			if err != nil {
				t.Fatalf("reader rejects the oracle's entries as Snapshot writes them: %v\n%s", err, canon.Bytes())
			}
			if !reflect.DeepEqual(persisted(got), want) {
				t.Fatalf("reader and oracle decode different entries:\n%+v\n%+v", persisted(got), want)
			}
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
