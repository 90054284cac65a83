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
	"redpatch/internal/wire"
	"redpatch/internal/workpool"
)

// SnapshotVersion is the current snapshot format version. Restore
// rejects snapshots written by any other version; there is no reader
// for older formats, so a restarted service given one starts cold.
//
//   - Version 1 persisted whole results with the expanded per-instance
//     path detail.
//   - Version 2 persisted whole results with the factored evaluator's
//     quotient paths with their replica multiplicities, atomic
//     designs only.
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
	// point, is not in canonical form, does not match the entry's
	// shape or does not sort after the key before it.
	ErrSnapshotCorrupt = errors.New("engine: corrupt snapshot")
)

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
// written after it is released. The bytes are those encoding/json
// writes for the same entries, rendered with package wire into one
// reused buffer and handed to w in chunks of about snapshotChunk
// bytes. Every entry is checked before the first byte, so a snapshot
// that fails on an entry writes nothing.
func (g *Engine) Snapshot(w io.Writer) (int, error) {
	g.mu.Lock()
	m := g.memo.frozen()
	g.mu.Unlock()

	// Every key is rendered into one buffer and converted to one
	// string, which the sorted references index. A classic design's key
	// takes 22 bytes and a rollout point's about 40.
	var sc keyScratch
	text := make([]byte, 0, 32*m.n)
	refs := make([]snapshotRef, 0, m.n)
	for k, v := range m.all() {
		if err := wire.CheckFinite(v.before.AIM, v.before.ASP, v.after.AIM, v.after.ASP, v.coa, v.sa); err != nil {
			return 0, fmt.Errorf("engine: writing snapshot: %w", err)
		}
		start := len(text)
		var rollout bool
		text, rollout = m.appendText(text, k, &sc)
		refs = append(refs, snapshotRef{start: start, end: len(text), rollout: rollout, val: v})
	}
	keys := string(text)
	slices.SortFunc(refs, func(a, b snapshotRef) int {
		return strings.Compare(keys[a.start:a.end], keys[b.start:b.end])
	})

	// A design entry takes about 245 bytes, its key included; one that
	// does not fit the chunk's slack grows the buffer once.
	b := make([]byte, 0, snapshotChunk+1024)
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, SnapshotVersion, 10)
	b = append(b, `,"fingerprint":`...)
	b = wire.AppendString(b, g.fp)
	b = append(b, `,"entries":[`...)
	for i, r := range refs {
		if len(b) >= snapshotChunk {
			if _, err := w.Write(b); err != nil {
				return 0, fmt.Errorf("engine: writing snapshot: %w", err)
			}
			b = b[:0]
		}
		v := r.val
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"key":`...)
		b = wire.AppendString(b, keys[r.start:r.end])
		if r.rollout {
			b = v.before.appendJSON(append(b, `,"security":`...), &dumpKeys)
		} else {
			b = v.before.appendJSON(append(b, `,"before":`...), &dumpKeys)
			b = v.after.appendJSON(append(b, `,"after":`...), &dumpKeys)
		}
		b = wire.AppendFloat(append(b, `,"coa":`...), v.coa)
		b = wire.AppendFloat(append(b, `,"sa":`...), v.sa)
		b = append(b, '}')
	}
	b = append(b, "]}\n"...)
	if _, err := w.Write(b); err != nil {
		return 0, fmt.Errorf("engine: writing snapshot: %w", err)
	}
	return len(refs), nil
}

// snapshotChunk is the size past which Snapshot hands its buffer to the
// writer and reuses it.
const snapshotChunk = 32 << 10

// snapshotRef is one memo entry as Snapshot writes it: its text key,
// keys[start:end] in Snapshot's one string of keys, whether that is a
// rollout point's, and its numbers.
type snapshotRef struct {
	start, end int
	rollout    bool
	val        *entry
}

// Restore merges a snapshot into the memo and reports how many entries
// it added. The snapshot must carry this engine's format version and
// fingerprint — a dump taken under a different vulnerability dataset,
// policy or schedule fails with ErrSnapshotFingerprint and changes
// nothing. Every entry is checked before any merges (ErrSnapshotCorrupt
// otherwise), so a rejected snapshot leaves the memo as it was. Entries
// whose key is already cached (or being solved) are skipped: live
// results win over persisted ones.
//
// Restore reads the layout Snapshot writes and no other: its fields in
// its order, no insignificant whitespace, at most a newline after the
// closing brace, and the entries in strictly increasing key order, as
// Snapshot sorts them. A reformatted or hand-edited dump, or one whose
// entries are out of order or list a key twice, fails with
// ErrSnapshotCorrupt even where it is equivalent JSON. The entries are
// decoded in up to Options.Workers parts at once (GOMAXPROCS when it is
// not set), each straight from the dump's bytes.
func (g *Engine) Restore(r io.Reader) (int, error) {
	data, err := readAll(r)
	if err != nil {
		return 0, fmt.Errorf("engine: reading snapshot: %w", err)
	}
	parts, err := decodeSnapshot(data, g.fp, g.workers)
	if err != nil {
		return 0, err
	}

	restored := 0
	var buf [keyBuf]byte
	g.mu.Lock()
	if g.memo.n == 0 {
		// A restarted service restores into an empty memo: size its
		// index for the dump once instead of growing it entry by entry.
		n := 0
		for i := range parts {
			n += len(parts[i].entries)
		}
		g.memo.reserve(n)
	}
	for i := range parts {
		p := &parts[i]
		ids := make([]uint32, len(p.labels.labels))
		for j := range p.entries {
			e := &p.entries[j]
			k := g.memo.translate(buf[:0], p.keys[e.start:e.end], &p.labels, ids)
			if g.inflight.find(k, g.memo.hash(k)) != nil {
				continue
			}
			// An entry already cached stays: live results win.
			if g.memo.put(k, e.val, true) {
				g.size.Add(1)
				restored++
			}
		}
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

// restoredPart is the checked entries of one run of a dump. Their
// keys are packed back to back in keys, as the memo packs them, with
// tier label ids from the part's own label table: labels is a memo used
// for that table alone. first and last are the run's first and last
// text keys, which alias the dump.
type restoredPart struct {
	labels      memo
	keys        []byte
	entries     []restoredEntry
	first, last []byte
}

// restoredEntry is one dump entry, checked and ready to merge: the
// served numbers and its packed key, keys[start:end] of its part.
type restoredEntry struct {
	start, end int
	val        entry
}

// entrySep is what separates two entries in the layout Snapshot
// writes; the second opens at its '{'.
var entrySep = []byte(`},{"key":`)

// decodeSnapshot reads a dump in the layout Snapshot writes, without
// reflection. It reads the version first (ErrSnapshotVersion), then the
// fingerprint (ErrSnapshotFingerprint unless it is fp), then the
// entries, in up to workers parts at once (workpool.Clamp's count). Each
// entry is checked as it is read: its key must parse to a valid spec
// and rollout point, be in the canonical form the engine renders, match
// the entry's shape and sort after the key before it. Anything else is
// ErrSnapshotCorrupt.
//
// The parts are cut where entrySep opens an entry. A dump the one-part
// reader accepts has entrySep nowhere else: its '"' after '{' is
// unescaped, so inside a key it would end the string, and the layout
// allows no "key" after a key. A cut in a corrupt dump makes the part
// before it run past its end, which is ErrSnapshotCorrupt too.
func decodeSnapshot(data []byte, fp string, workers int) ([]restoredPart, error) {
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
	if d.skip("]") {
		d.lit("}")
		d.skip("\n")
		if d.err == nil && d.pos != len(d.b) {
			d.fail("the end of the dump")
		}
		return nil, d.err
	}
	// The entries run to the "]}" that closes the dump.
	end := len(data) - len("]}")
	if bytes.HasSuffix(data, []byte("\n")) {
		end--
	}
	if d.err == nil && (end < d.pos || !bytes.HasPrefix(data[end:], []byte("]}"))) {
		d.fail(`the entries' closing "]}" at the end of the dump`)
	}
	if d.err != nil {
		return nil, d.err
	}

	// Part i runs from bounds[i] to the ',' before bounds[i+1]; each
	// cut is the first entry to open at or after an even share or,
	// when none does, after the last cut, so with two workers or more a
	// dump of two entries or more reads in two parts at least.
	workers = workpool.Clamp(workers, 0)
	bounds := make([]int, 1, workers+1)
	bounds[0] = d.pos
	for i := 1; i < workers; i++ {
		last := bounds[len(bounds)-1]
		from := max(d.pos+(end-d.pos)*i/workers-len(entrySep), last)
		j := bytes.Index(data[from:end], entrySep)
		if j < 0 {
			from = last
			j = bytes.Index(data[from:end], entrySep)
		}
		if j < 0 {
			break
		}
		bounds = append(bounds, from+j+len("},"))
	}
	bounds = append(bounds, end+1)
	parts, err := workpool.Map(len(bounds)-1, bounds[:len(bounds)-1], func(i, start int) (restoredPart, error) {
		return decodePart(data, start, bounds[i+1]-1)
	})
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(parts); i++ {
		if err := checkOrder(parts[i-1].last, parts[i].first); err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// decodePart reads the entries data[start:end] holds, which must be
// whole entries separated by commas.
func decodePart(data []byte, start, end int) (restoredPart, error) {
	d := dumpReader{b: data, pos: start}
	run := data[start:end]
	// Snapshot writes every entry opening with its key, and a key of n
	// tiers holds n-1 ';', so counting both sizes the part once. A
	// packed tier takes two bytes while its label id and replica count
	// are below 128, and a rollout point a marker and a byte a count.
	n := bytes.Count(run, []byte(`{"key":`))
	tiers := n + bytes.Count(run, []byte{';'})
	p := restoredPart{
		keys:    make([]byte, 0, 3*tiers+n),
		entries: make([]restoredEntry, 0, n),
	}
	var kp paperdata.KeyParser
	var sc keyScratch
	for {
		key, err := d.entry(&p, &kp, &sc)
		if err != nil {
			return restoredPart{}, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
		if d.err != nil {
			return restoredPart{}, d.err
		}
		if p.first == nil {
			p.first = key
		} else if err := checkOrder(p.last, key); err != nil {
			return restoredPart{}, err
		}
		p.last = key
		if d.pos >= end {
			break
		}
		d.lit(",")
	}
	if d.pos != end {
		d.fail("the end of the entries")
		return restoredPart{}, d.err
	}
	return p, nil
}

// checkOrder checks that key sorts after prev, the key of the entry
// before it: Snapshot writes each key once, in increasing order, and a
// key listed twice would make which entry is served depend on the
// order of the merge.
func checkOrder(prev, key []byte) error {
	switch c := bytes.Compare(prev, key); {
	case c == 0:
		return fmt.Errorf("%w: key %q appears twice", ErrSnapshotCorrupt, key)
	case c > 0:
		return fmt.Errorf("%w: key %q follows %q, out of order", ErrSnapshotCorrupt, key, prev)
	}
	return nil
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
func (d *dumpReader) summary() Summary {
	var s Summary
	d.lit(dumpKeys[0])
	s.AIM = d.float()
	d.lit(dumpKeys[1])
	s.ASP = d.float()
	d.lit(dumpKeys[2])
	s.NoEV = d.int()
	d.lit(dumpKeys[3])
	s.NoAP = d.int()
	d.lit(dumpKeys[4])
	s.NoEP = d.int()
	d.lit("}")
	return s
}

// entry consumes one memo entry, checks it and appends it to p,
// returning its key, which aliases the dump. The key is parsed into
// sc's buffers. A layout mismatch is left in d.err; a well-formed entry
// whose key fails a check is returned as the error.
func (d *dumpReader) entry(p *restoredPart, kp *paperdata.KeyParser, sc *keyScratch) ([]byte, error) {
	var val entry
	var key []byte
	d.lit(`{"key":`)
	// The key is taken verbatim: a canonical key has no escapes, so the
	// re-render check below rejects any.
	if tok := d.str(); d.err == nil {
		key = tok[1 : len(tok)-1]
	}
	design := d.skip(`,"before":`)
	if design {
		val.before = d.summary()
		d.lit(`,"after":`)
		val.after = d.summary()
	} else {
		d.lit(`,"security":`)
		val.before = d.summary()
	}
	d.lit(`,"coa":`)
	val.coa = d.float()
	d.lit(`,"sa":`)
	val.sa = d.float()
	d.lit("}")
	if d.err != nil {
		return key, nil
	}

	tiers, patched, rollout, err := kp.AppendParse(sc.tiers[:0], sc.patched[:0], key)
	sc.tiers, sc.patched = tiers, patched
	if err != nil {
		return key, err
	}
	spec := paperdata.DesignSpec{Tiers: tiers}
	var buf [keyBuf]byte
	k := spec.AppendKey(buf[:0])
	if rollout {
		k = spec.AppendRolloutKey(buf[:0], patched)
	} else {
		patched = nil
	}
	if !bytes.Equal(k, key) {
		// The copy keeps buf on the stack.
		return key, fmt.Errorf("key %q is not canonical (want %q)", key, string(k))
	}
	switch {
	case !rollout && !design:
		return key, fmt.Errorf("design key %q needs before and after, and no security", key)
	case rollout && design:
		return key, fmt.Errorf("rollout key %q needs security, and no before or after", key)
	}
	start := len(p.keys)
	p.keys, _ = p.labels.appendKey(p.keys, spec, patched, true)
	p.entries = append(p.entries, restoredEntry{start: start, end: len(p.keys), val: val})
	return key, nil
}
