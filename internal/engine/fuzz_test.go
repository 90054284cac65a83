package engine

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"redpatch/internal/paperdata"
)

// FuzzRestore feeds arbitrary bytes to Restore on an engine that already
// holds the version-3 seed dump. A rejected input must not panic, must
// report zero entries merged and must leave Len unchanged; an accepted
// one must add exactly the entries it reports. The engine reads in
// three parts, so every input of two entries or more is cut between
// parts whatever the runner's core count, and a one-worker engine must
// accept and reject alike and snapshot the same bytes. Restore's typed
// reader is pinned to oracleDecode, the encoding/json reading: what the
// reader accepts, the oracle accepts with equal entries, and whatever
// entries the oracle accepts, sorted by key and written out as Snapshot
// writes them, the reader accepts. Every snapshot the engine then takes
// must restore into a fresh engine that snapshots to the same bytes.
// Seeds: the real version-3 and version-2 dumps in testdata/ and every
// mangled dump of TestRestoreRejectsCorruptEntries.
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
	// restore restores the seed dump and then data into a new engine
	// reading with the given workers, and snapshots it.
	restore := func(t *testing.T, workers int, data []byte) (*Engine, int, []byte, error) {
		g, err := New(never, Options{Fingerprint: "fuzz", Workers: workers})
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
		var snap bytes.Buffer
		if _, err := g.Snapshot(&snap); err != nil {
			t.Fatal(err)
		}
		return g, n, snap.Bytes(), err
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, n, first, err := restore(t, 3, data)
		if _, n1, snap1, err1 := restore(t, 1, data); (err1 == nil) != (err == nil) || n1 != n || !bytes.Equal(snap1, first) {
			t.Fatalf("one worker restores %d entries (err %v), three %d (err %v); snapshots equal: %v",
				n1, err1, n, err, bytes.Equal(snap1, first))
		}

		got, rerr := decodeSnapshot(data, "fuzz", 3)
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
			slices.SortFunc(want, func(a, b snapshotEntry) int { return strings.Compare(a.Key, b.Key) })
			var canon bytes.Buffer
			if err := json.NewEncoder(&canon).Encode(snapshotFile{SnapshotVersion, "fuzz", want}); err != nil {
				t.Fatal(err)
			}
			got, err := decodeSnapshot(canon.Bytes(), "fuzz", 3)
			if err != nil {
				t.Fatalf("reader rejects the oracle's entries as Snapshot writes them: %v\n%s", err, canon.Bytes())
			}
			if !reflect.DeepEqual(persisted(got), want) {
				t.Fatalf("reader and oracle decode different entries:\n%+v\n%+v", persisted(got), want)
			}
		}

		fresh, err := New(never, Options{Fingerprint: "fuzz", Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if m, err := fresh.Restore(bytes.NewReader(first)); err != nil || m != g.Len() {
			t.Fatalf("restoring a snapshot: %d entries of %d, err %v", m, g.Len(), err)
		}
		var second bytes.Buffer
		if _, err := fresh.Snapshot(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second.Bytes()) {
			t.Fatalf("snapshot -> restore -> snapshot differs:\n%s\n%s", first, second.Bytes())
		}
	})
}

// memoKey is one key of a FuzzMemo run: a spec, and the patched counts
// of a rollout point (nil for a design).
type memoKey struct {
	spec    paperdata.DesignSpec
	patched []int
}

// fuzzOps decodes a FuzzMemo input. A read past the end yields zero,
// so every input decodes.
type fuzzOps []byte

func (d *fuzzOps) byte() byte {
	if len(*d) == 0 {
		return 0
	}
	b := (*d)[0]
	*d = (*d)[1:]
	return b
}

// key decodes one memo key: 1 to 8 tiers of any catalog role, each on
// its own stack, on the webalt stack or with its own stack spelled as
// the variant; 1 to 32,895 replicas, so counts above 127 take a
// two-byte uvarint; and, for a rollout point, a patched count per tier.
func (d *fuzzOps) key() memoKey {
	roles := paperdata.Roles()
	tiers := make([]paperdata.TierSpec, d.byte()%8+1)
	for i := range tiers {
		b := d.byte()
		t := paperdata.TierSpec{Role: roles[b%4]}
		switch b >> 2 % 3 {
		case 1:
			t.Variant = paperdata.RoleWebAlt
		case 2:
			t.Variant = t.Role
		}
		r := d.byte()
		t.Replicas = int(r&0x7f) + 1
		if r&0x80 != 0 {
			t.Replicas += int(d.byte()) << 7
		}
		tiers[i] = t
	}
	k := memoKey{spec: paperdata.DesignSpec{Tiers: tiers}}
	if d.byte()&1 == 1 {
		k.patched = make([]int, len(tiers))
		for i, t := range tiers {
			k.patched[i] = (int(d.byte()) | int(d.byte())<<8) % (t.Replicas + 1)
		}
	}
	return k
}

// FuzzMemo runs a decoded sequence of memo operations against a
// map[string]entry oracle keyed by text keys: puts of decoded keys,
// puts of keys already put that overwrite their entry or, as Restore
// puts, keep it, gets of decoded keys (present or
// not), index growth as Restore sizes it, and full iteration. After
// every operation its key, and one more key put so far in turn, must
// read the oracle's entry (after growth and iteration every key put so
// far must), and after every put Len must equal the oracle's. Iteration rendered to text and sorted must equal
// the oracle's sorted keys, each with the oracle's entry.
func FuzzMemo(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 1, 4, 2, 1, 2, 2, 0, 3, 3, 4})
	f.Add([]byte{0, 7, 1, 0x85, 2, 9, 4, 0x80, 8, 7, 16, 0x81, 0x10, 1, 2, 1, 5, 0, 1, 0, 7, 4})
	many := []byte{}
	for i := range 60 {
		many = append(many, 0, byte(i%4), byte(i), byte(i*37), byte(i>>2), byte(i*11), byte(i&1), byte(i*5), 0)
		if i%7 == 0 {
			many = append(many, 1, byte(i))
		}
	}
	f.Add(append(many, 3, 9, 4))
	f.Fuzz(memoOps)
}

// memoOps is FuzzMemo's body: it runs the operations data decodes to.
func memoOps(t *testing.T, data []byte) {
	m := newMemo()
	oracle := make(map[string]entry)
	var keys []memoKey
	check := func(k memoKey) {
		t.Helper()
		text := textKey(k.spec, k.patched)
		want, inOracle := oracle[text]
		packed, ok := m.appendKey(nil, k.spec, k.patched, false)
		var got entry
		if ok {
			got, ok = m.get(packed)
		}
		if ok != inOracle || got != want {
			t.Fatalf("get %s = %+v, %v; oracle %+v, %v", text, got, ok, want, inOracle)
		}
	}
	put := func(k memoKey, v entry, keep bool) {
		t.Helper()
		text := textKey(k.spec, k.patched)
		_, had := oracle[text]
		if !had || !keep {
			oracle[text] = v
		}
		packed, _ := m.appendKey(nil, k.spec, k.patched, true)
		if added := m.put(packed, v, keep); added == had {
			t.Fatalf("put %s reports new %v; oracle had it: %v", text, added, had)
		}
		if !had {
			keys = append(keys, k)
		}
		if m.n != len(oracle) {
			t.Fatalf("memo holds %d entries after a put, oracle %d", m.n, len(oracle))
		}
	}
	d := fuzzOps(data)
	for step := 1; len(d) > 0; step++ {
		v := entry{before: Summary{AIM: float64(step), NoAP: step}, coa: 1 / float64(step)}
		op := d.byte() % 5
		var k memoKey
		switch op {
		case 0:
			k = d.key()
			put(k, v, false)
		case 1:
			if len(keys) == 0 {
				continue
			}
			b := d.byte()
			k = keys[int(b)%len(keys)]
			put(k, v, b&0x80 != 0)
		case 2:
			k = d.key()
		case 3:
			m.reserve(len(oracle) + int(d.byte())*16)
		case 4:
			var sc keyScratch
			var got []string
			for pk, v := range m.all() {
				text, rollout := m.appendText(nil, pk, &sc)
				if _, patched, err := parseKey(string(text)); err != nil || rollout != (patched != nil) {
					t.Fatalf("key %s, rendered as a rollout point: %v, parses to %v, %v", text, rollout, patched, err)
				}
				if want, ok := oracle[string(text)]; !ok || *v != want {
					t.Fatalf("iteration yields %s = %+v; oracle %+v, %v", text, *v, want, ok)
				}
				got = append(got, string(text))
			}
			slices.Sort(got)
			if want := slices.Sorted(maps.Keys(oracle)); !slices.Equal(got, want) {
				t.Fatalf("iteration yields keys\n%q\noracle holds\n%q", got, want)
			}
		}
		switch {
		case op <= 2:
			check(k)
		default:
			for _, k := range keys {
				check(k)
			}
		}
		// One more key put so far, in turn, so that every key is read
		// back as the memo grows around it.
		if len(keys) > 0 {
			check(keys[step%len(keys)])
		}
	}
}
