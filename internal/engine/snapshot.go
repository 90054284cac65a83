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
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

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

// snapshotFile is the on-disk shape. Restore reads Entries only once
// the version and fingerprint match, so another version's entry shape
// never reaches the entry decoder.
type snapshotFile[E any] struct {
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Entries     E      `json:"entries"`
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

// persist renders the memo entry v stored under key k.
func persist(k string, v entry) snapshotEntry {
	se := snapshotEntry{Key: k, COA: v.coa, SA: v.sa}
	if paperdata.IsRolloutKey(k) {
		se.Security = &v.before
	} else {
		se.Before, se.After = &v.before, &v.after
	}
	return se
}

// entry rebuilds the memo value of a persisted entry, checking that its
// key parses to a valid spec (and rollout point), is in the canonical
// form the engine renders, and that its shape matches the key's kind.
func (se snapshotEntry) entry() (entry, error) {
	spec, patched, err := paperdata.ParseKey(se.Key)
	if err != nil {
		return entry{}, err
	}
	var buf [keyBuf]byte
	if patched == nil {
		if k := spec.AppendKey(buf[:0]); string(k) != se.Key {
			return entry{}, fmt.Errorf("key %q is not canonical (want %q)", se.Key, k)
		}
		if se.Before == nil || se.After == nil || se.Security != nil {
			return entry{}, fmt.Errorf("design key %q needs before and after, and no security", se.Key)
		}
		return entry{before: *se.Before, after: *se.After, coa: se.COA, sa: se.SA}, nil
	}
	if k := spec.AppendRolloutKey(buf[:0], patched); string(k) != se.Key {
		return entry{}, fmt.Errorf("key %q is not canonical (want %q)", se.Key, k)
	}
	if se.Security == nil || se.Before != nil || se.After != nil {
		return entry{}, fmt.Errorf("rollout key %q needs security, and no before or after", se.Key)
	}
	return entry{before: *se.Security, coa: se.COA, sa: se.SA}, nil
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
// key, so equal memos snapshot byte-identically.
func (g *Engine) Snapshot(w io.Writer) (int, error) {
	g.mu.Lock()
	keys := make([]string, 0, len(g.memo))
	for k := range g.memo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := make([]snapshotEntry, len(keys))
	for i, k := range keys {
		entries[i] = persist(k, g.memo[k])
	}
	g.mu.Unlock()

	if err := json.NewEncoder(w).Encode(snapshotFile[[]snapshotEntry]{
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
// otherwise), so a rejected snapshot leaves the memo as it was. Entries
// whose key is already cached (or being solved) are skipped: live
// results win over persisted ones.
func (g *Engine) Restore(r io.Reader) (int, error) {
	var snap snapshotFile[json.RawMessage]
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return 0, fmt.Errorf("engine: reading snapshot: %w", err)
	}
	if snap.Version != SnapshotVersion {
		return 0, fmt.Errorf("%w: snapshot version %d, engine supports %d",
			ErrSnapshotVersion, snap.Version, SnapshotVersion)
	}
	if snap.Fingerprint != g.fp {
		return 0, fmt.Errorf("%w: snapshot taken under %q, engine is %q",
			ErrSnapshotFingerprint, snap.Fingerprint, g.fp)
	}
	var entries []snapshotEntry
	if err := json.Unmarshal(snap.Entries, &entries); err != nil {
		return 0, fmt.Errorf("%w: entries: %v", ErrSnapshotCorrupt, err)
	}
	vals := make([]entry, len(entries))
	for i, se := range entries {
		v, err := se.entry()
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
		vals[i] = v
	}

	restored := 0
	g.mu.Lock()
	for i, se := range entries {
		if _, ok := g.memo[se.Key]; ok {
			continue
		}
		if _, ok := g.inflight[se.Key]; ok {
			continue
		}
		g.insert(se.Key, vals[i])
		restored++
	}
	g.mu.Unlock()
	return restored, nil
}
