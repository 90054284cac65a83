package engine

// Memo persistence: Snapshot serializes every completed memo entry,
// Restore merges a snapshot back into a (typically fresh) engine so a
// restarted service keeps its warmed memo. A snapshot is only valid for
// the exact evaluator configuration it was taken under, so the format
// carries the engine's fingerprint — the facade fingerprints the
// vulnerability dataset, patch policy and schedule — and Restore
// rejects any mismatch outright: results solved under different inputs
// must never be merged, silently serving stale models.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"slices"
	"strconv"
	"strings"

	"redpatch/internal/paperdata"
)

// SnapshotVersion is the current snapshot format version. Restore
// rejects snapshots written by any other version; there is no reader
// for older formats, so a restarted service given one starts cold.
//
//   - Version 1 persisted whole results with the expanded per-instance
//     path detail.
//   - Version 2 persisted whole results with the factored evaluator's
//     quotient paths (PathMetric.Count carrying replica
//     multiplicities), atomic designs only.
//   - Version 3 persists each entry as its key and the numbers a
//     report serves, rollout points included: about 245 bytes of JSON
//     per design, 0.96 MiB for the 4,096 designs of the 1..8-per-tier
//     classic space (3.2 MiB in version 2).
const SnapshotVersion = 3

var (
	// ErrSnapshotVersion reports a snapshot written by an incompatible
	// format version.
	ErrSnapshotVersion = errors.New("engine: unsupported snapshot version")
	// ErrSnapshotFingerprint reports a snapshot taken under a different
	// evaluator configuration (vulnerability dataset, policy or
	// schedule).
	ErrSnapshotFingerprint = errors.New("engine: snapshot fingerprint mismatch")
	// ErrSnapshotCorrupt reports a snapshot whose entries are
	// malformed: a key that does not parse to a valid spec and rollout
	// point, is not in canonical form, or does not match the entry's
	// shape.
	ErrSnapshotCorrupt = errors.New("engine: corrupt snapshot")
)

// snapshotFile is the on-disk shape Snapshot encodes.
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
	Key      string   `json:"key"`
	Before   *summary `json:"before,omitempty"`
	After    *summary `json:"after,omitempty"`
	Security *summary `json:"security,omitempty"`
	COA      float64  `json:"coa"`
	SA       float64  `json:"sa"`
}

// persist renders the memo entry v stored under text key k, a rollout
// point's when rollout is set. The entry points into v.
func persist(k string, rollout bool, v *entry) snapshotEntry {
	se := snapshotEntry{Key: k, COA: v.coa, SA: v.sa}
	if rollout {
		se.Security = &v.before
	} else {
		se.Before, se.After = &v.before, &v.after
	}
	return se
}

// Len reports the number of completed entries in the memo, designs and
// rollout points alike (in-flight solves excluded). It reads one
// atomic — metrics scrapes and flush-loop clean checks call it per
// scenario, and taking the memo's mutex would stall concurrent
// evaluations for nothing.
func (g *Engine) Len() int { return int(g.size.Load()) }

// Snapshot writes every completed memo entry to w as versioned JSON and
// reports how many entries it wrote. In-flight solves are skipped, not
// waited for; erred solves never reach the memo. Entries are sorted by
// key, so equal memos snapshot byte-identically. The memo's lock is held
// only while its slots are copied: keys are rendered, sorted and
// encoded after it is released.
func (g *Engine) Snapshot(w io.Writer) (int, error) {
	g.mu.Lock()
	m := g.memo.frozen()
	g.mu.Unlock()

	// Every key is rendered into one buffer and converted to one
	// string, which the entries' keys slice.
	var sc keyScratch
	var text []byte
	entries := make([]snapshotEntry, 0, m.n)
	ends := make([]int, 0, m.n)
	for k, v := range m.all() {
		var rollout bool
		text, rollout = m.appendText(text, k, &sc)
		ends = append(ends, len(text))
		entries = append(entries, persist("", rollout, v))
	}
	keys, start := string(text), 0
	for i, end := range ends {
		entries[i].Key = keys[start:end]
		start = end
	}
	slices.SortFunc(entries, func(a, b snapshotEntry) int { return strings.Compare(a.Key, b.Key) })

	if err := json.NewEncoder(w).Encode(snapshotFile{
		Version:     SnapshotVersion,
		Fingerprint: g.fp,
		Entries:     entries,
	}); err != nil {
		return 0, fmt.Errorf("engine: writing snapshot: %w", err)
	}
	return len(entries), nil
}

// Restore merges a snapshot into the memo and reports how many entries
// it added. The snapshot must carry this engine's format version and
// fingerprint — a dump taken under a different vulnerability dataset,
// policy or schedule fails with ErrSnapshotFingerprint and changes
// nothing. Every entry is checked before any merges (ErrSnapshotCorrupt
// otherwise, as for a dump listing one key twice), so a rejected
// snapshot leaves the memo as it was. Entries
// whose key is already cached (or being solved) are skipped: live
// results win over persisted ones.
//
// Restore reads the layout Snapshot writes and no other: its fields in
// its order, no insignificant whitespace, at most a newline after the
// closing brace. A reformatted or hand-edited dump fails with
// ErrSnapshotCorrupt even where it is equivalent JSON.
func (g *Engine) Restore(r io.Reader) (int, error) {
	data, err := readAll(r)
	if err != nil {
		return 0, fmt.Errorf("engine: reading snapshot: %w", err)
	}
	entries, err := decodeSnapshot(data, g.fp)
	if err != nil {
		return 0, err
	}

	restored := 0
	var buf [keyBuf]byte
	g.mu.Lock()
	if g.memo.n == 0 {
		// A restarted service restores into an empty memo: size its
		// index for the dump once instead of growing it entry by entry.
		g.memo.reserve(len(entries))
	}
	for _, e := range entries {
		k, _ := g.memo.appendKey(buf[:0], e.spec, e.patched, true)
		if _, ok := g.memo.get(k); ok {
			continue
		}
		if _, ok := g.inflight[string(k)]; ok {
			continue
		}
		g.insert(k, e.val)
		restored++
	}
	g.mu.Unlock()
	return restored, nil
}

// readAll reads r to the end. A file, which is how redpatchd hands
// over its dump, is read into one buffer sized by Stat, so the dump is
// never copied into a grown buffer.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			// ReadFrom grows only when less than MinRead is free.
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// restoredEntry is one dump entry, checked and ready to merge: the
// spec its key parses to, the patched counts of a rollout key (nil for
// a design key) and the served numbers.
type restoredEntry struct {
	spec    paperdata.DesignSpec
	patched []int
	val     entry
}

// decodeSnapshot reads a dump in the layout Snapshot writes, in one
// pass and without reflection. It reads the version first
// (ErrSnapshotVersion), then the fingerprint (ErrSnapshotFingerprint
// unless it is fp), then the entries, each checked as it is read: its
// key must parse to a valid spec and rollout point, be in the canonical
// form the engine renders, match the entry's shape and differ from every
// other entry's key. Anything else is ErrSnapshotCorrupt.
func decodeSnapshot(data []byte, fp string) ([]restoredEntry, error) {
	d := dumpReader{b: data}
	d.lit(`{"version":`)
	if v := d.int(); d.err == nil && v != SnapshotVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, engine supports %d",
			ErrSnapshotVersion, v, SnapshotVersion)
	}
	d.lit(`,"fingerprint":`)
	if tok := d.str(); d.err == nil {
		if err := checkFingerprint(tok, fp); err != nil {
			return nil, err
		}
	}
	d.lit(`,"entries":[`)
	// Snapshot writes every entry opening with its key, so counting the
	// openings sizes the slice once.
	n := bytes.Count(data[d.pos:], []byte(`{"key":`))
	entries := make([]restoredEntry, 0, n)
	keys := make([]string, 0, n)
	if !d.skip("]") {
		for {
			e, key, err := d.entry()
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
			}
			entries = append(entries, e)
			keys = append(keys, key)
			if !d.skip(",") {
				break
			}
		}
		d.lit("]")
	}
	d.lit("}")
	d.skip("\n")
	if d.err == nil && d.pos != len(d.b) {
		d.fail("the end of the dump")
	}
	if d.err != nil {
		return nil, d.err
	}
	// A key listed twice would make which entry is served depend on
	// the order of the merge. Snapshot writes its keys sorted, so the
	// sort finds them in order.
	slices.Sort(keys)
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return nil, fmt.Errorf("%w: key %q appears twice", ErrSnapshotCorrupt, keys[i])
		}
	}
	return entries, nil
}

// checkFingerprint compares the fingerprint token of a dump with the
// engine's: a different one is ErrSnapshotFingerprint, an equal one
// spelled other than Snapshot spells it ErrSnapshotCorrupt.
func checkFingerprint(tok []byte, fp string) error {
	var got string
	if err := json.Unmarshal(tok, &got); err != nil {
		return fmt.Errorf("%w: fingerprint: %v", ErrSnapshotCorrupt, err)
	}
	if got != fp {
		return fmt.Errorf("%w: snapshot taken under %q, engine is %q",
			ErrSnapshotFingerprint, got, fp)
	}
	if want, _ := json.Marshal(fp); !bytes.Equal(tok, want) {
		return fmt.Errorf("%w: fingerprint spelled %s, not %s", ErrSnapshotCorrupt, tok, want)
	}
	return nil
}

// dumpReader is a cursor over a dump. The first mismatch sets err and
// turns every later read into a no-op, so a decoder reads straight
// through and checks err once.
type dumpReader struct {
	b   []byte
	pos int
	err error
}

func (d *dumpReader) fail(want string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: at byte %d: want %s", ErrSnapshotCorrupt, d.pos, want)
	}
}

// skip consumes s if the dump continues with it.
func (d *dumpReader) skip(s string) bool {
	if d.err != nil || len(d.b)-d.pos < len(s) || string(d.b[d.pos:d.pos+len(s)]) != s {
		return false
	}
	d.pos += len(s)
	return true
}

// lit consumes s, which the dump must continue with.
func (d *dumpReader) lit(s string) {
	if !d.skip(s) {
		d.fail(strconv.Quote(s))
	}
}

// str consumes a JSON string and returns it with its quotes and
// escapes, undecoded.
func (d *dumpReader) str() []byte {
	start := d.pos
	if !d.skip(`"`) {
		d.fail("a string")
		return nil
	}
	for i := d.pos; i < len(d.b); i++ {
		switch d.b[i] {
		case '\\':
			i++
		case '"':
			d.pos = i + 1
			return d.b[start:d.pos]
		}
	}
	d.fail("the string's closing quote")
	return nil
}

// number consumes a JSON number and returns its text.
func (d *dumpReader) number() []byte {
	if d.err != nil {
		return nil
	}
	b, i := d.b, d.pos
	digits := func() bool {
		from := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	ok := true
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		ok = digits()
	}
	if ok && i < len(b) && b[i] == '.' {
		i++
		ok = digits()
	}
	if ok && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		ok = digits()
	}
	if !ok {
		d.fail("a number")
		return nil
	}
	tok := b[d.pos:i]
	d.pos = i
	return tok
}

func (d *dumpReader) float() float64 {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail("a float64, not " + string(tok))
	}
	return f
}

func (d *dumpReader) int() int {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	n, err := strconv.Atoi(string(tok))
	if err != nil {
		d.fail("an int, not " + string(tok))
	}
	return n
}

// summary consumes one side's security numbers.
func (d *dumpReader) summary() summary {
	var s summary
	d.lit(`{"aim":`)
	s.AIM = d.float()
	d.lit(`,"asp":`)
	s.ASP = d.float()
	d.lit(`,"noev":`)
	s.NoEV = d.int()
	d.lit(`,"noap":`)
	s.NoAP = d.int()
	d.lit(`,"noep":`)
	s.NoEP = d.int()
	d.lit("}")
	return s
}

// entry consumes one memo entry and checks it, returning it with its
// key. A layout mismatch is left in d.err; a well-formed entry whose key
// fails a check is returned as the error.
func (d *dumpReader) entry() (restoredEntry, string, error) {
	var e restoredEntry
	var key string
	d.lit(`{"key":`)
	// The key is taken verbatim: a canonical key has no escapes, so the
	// re-render check below rejects any.
	if tok := d.str(); d.err == nil {
		key = string(tok[1 : len(tok)-1])
	}
	design := d.skip(`,"before":`)
	if design {
		e.val.before = d.summary()
		d.lit(`,"after":`)
		e.val.after = d.summary()
	} else {
		d.lit(`,"security":`)
		e.val.before = d.summary()
	}
	d.lit(`,"coa":`)
	e.val.coa = d.float()
	d.lit(`,"sa":`)
	e.val.sa = d.float()
	d.lit("}")
	if d.err != nil {
		return e, key, nil
	}

	spec, patched, err := paperdata.ParseKey(key)
	if err != nil {
		return e, key, err
	}
	var buf [keyBuf]byte
	k := spec.AppendKey(buf[:0])
	if patched != nil {
		k = spec.AppendRolloutKey(buf[:0], patched)
	}
	if string(k) != key {
		// The copy keeps buf on the stack.
		return e, key, fmt.Errorf("key %q is not canonical (want %q)", key, string(k))
	}
	switch {
	case patched == nil && !design:
		return e, key, fmt.Errorf("design key %q needs before and after, and no security", key)
	case patched != nil && design:
		return e, key, fmt.Errorf("rollout key %q needs security, and no before or after", key)
	}
	e.spec, e.patched = spec, patched
	return e, key, nil
}
