package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"redpatch/internal/paperdata"
)

// FuzzFleetRestore feeds arbitrary bytes to Registry.Restore, the path a
// restarting daemon takes with its on-disk fleet dump. No input may
// panic. A snapshot that lists one ID twice is rejected. A rejected
// input returns (0, err) and leaves a populated registry exactly as it
// was. An accepted input adds only unknown IDs,
// leaves live registrations alone, holds only systems whose Spec
// validates and whose campaign role is a known stack, and round-trips:
// its restored registry's Snapshot restores into a fresh registry whose
// Snapshot is byte-identical.
func FuzzFleetRestore(f *testing.F) {
	three := NewRegistry()
	for _, id := range []string{"a", "b", "c"} {
		s := testSystem(id)
		if id == "b" {
			s.Scenario = "weekly"
			s.Priority = 1.5
			s.DeadlineHours = 720
			s.SuccessProbability = 0.9
			s.RollbackMinutes = 15
			s.Tiers[1].Variant = "webalt"
		}
		if err := three.Register(s); err != nil {
			f.Fatal(err)
		}
	}
	snap, err := three.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add(bytes.Replace(snap, []byte(`"version":1`), []byte(`"version":2`), 1))
	f.Add(bytes.Replace(snap, []byte(`"successProbability":0.9`), []byte(`"successProbability":2`), 1))
	f.Add(bytes.Replace(snap, []byte(`"id":"c"`), []byte(`"id":"a"`), 1))
	f.Add([]byte("not json"))
	f.Add(bytes.Replace(snap, []byte(`"variant":"webalt"`), []byte(`"variant":"foo"`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		live := NewRegistry()
		s := testSystem("a")
		s.Priority = 9
		if err := live.Register(s); err != nil {
			t.Fatal(err)
		}
		before, rev := live.List(), live.Rev()

		added, err := live.Restore(data)
		if err == nil && listsAnIDTwice(data) {
			t.Fatalf("snapshot listing an ID twice accepted with %d added", added)
		}
		if err != nil {
			if added != 0 {
				t.Fatalf("rejected restore reported %d added", added)
			}
			if got := live.List(); !reflect.DeepEqual(got, before) || live.Rev() != rev {
				t.Fatalf("rejected restore changed the registry: %+v rev %d, want %+v rev %d", got, live.Rev(), before, rev)
			}
			return
		}
		if got, _ := live.Get("a"); !reflect.DeepEqual(got, s) {
			t.Fatalf("restore overwrote a live registration: %+v", got)
		}
		for _, sys := range live.List() {
			if err := sys.Spec().Validate(); err != nil {
				t.Fatalf("restore accepted system %q whose spec is invalid: %v", sys.ID, err)
			}
			if !paperdata.KnownStack(sys.Role) {
				t.Fatalf("restore accepted system %q with unknown campaign role %q", sys.ID, sys.Role)
			}
		}
		if live.Len() != len(before)+added {
			t.Fatalf("restore reported %d added, registry grew from %d to %d", added, len(before), live.Len())
		}
		if (added > 0) != (live.Rev() > rev) {
			t.Fatalf("restore of %d systems moved the revision from %d to %d", added, rev, live.Rev())
		}

		first := NewRegistry()
		if _, err := first.Restore(data); err != nil {
			t.Fatalf("accepted by a populated registry, rejected by a fresh one: %v", err)
		}
		s1, err := first.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		second := NewRegistry()
		if _, err := second.Restore(s1); err != nil {
			t.Fatalf("own snapshot rejected: %v\n%s", err, s1)
		}
		s2, err := second.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s1, s2) {
			t.Fatalf("snapshot does not round-trip:\n%s\n%s", s1, s2)
		}
	})
}

// listsAnIDTwice reports whether data decodes as a snapshot whose
// systems repeat an ID.
func listsAnIDTwice(data []byte) bool {
	var snap registrySnapshot
	if json.Unmarshal(data, &snap) != nil {
		return false
	}
	seen := map[string]bool{}
	for _, s := range snap.Systems {
		if seen[s.ID] {
			return true
		}
		seen[s.ID] = true
	}
	return false
}
