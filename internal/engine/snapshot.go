package engine

// Memo-cache persistence: Snapshot serializes every completed cache
// entry, Restore merges a snapshot back into a (typically fresh) engine
// so a restarted service keeps its warmed cache. A snapshot is only
// valid for the exact evaluator configuration it was taken under, so
// the format carries the engine's fingerprint — the facade fingerprints
// the vulnerability dataset, patch policy and schedule — and Restore
// rejects any mismatch outright: results solved under different inputs
// must never be merged, silently serving stale models.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"redpatch/internal/redundancy"
)

// SnapshotVersion is the current snapshot format version. Restore
// rejects snapshots written by other versions. Version 2 switched the
// persisted security path detail to the factored evaluator's quotient
// paths (PathMetric.Count carrying replica multiplicities); version-1
// dumps hold the expanded per-instance detail and are rejected rather
// than mixed with factored results.
const SnapshotVersion = 2

var (
	// ErrSnapshotVersion reports a snapshot written by an incompatible
	// format version.
	ErrSnapshotVersion = errors.New("engine: unsupported snapshot version")
	// ErrSnapshotFingerprint reports a snapshot taken under a different
	// evaluator configuration (vulnerability dataset, policy or
	// schedule).
	ErrSnapshotFingerprint = errors.New("engine: snapshot fingerprint mismatch")
	// ErrSnapshotCorrupt reports a snapshot whose entries are
	// internally inconsistent (key not matching its result's spec, or
	// an invalid spec).
	ErrSnapshotCorrupt = errors.New("engine: corrupt snapshot")
)

// snapshotFile is the on-disk shape.
type snapshotFile struct {
	Version     int             `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	Entries     []snapshotEntry `json:"entries"`
}

// snapshotEntry is one solved design: the spec's cache key and the full
// evaluation result (whose Spec carries the solve-time name).
type snapshotEntry struct {
	Key    string            `json:"key"`
	Result redundancy.Result `json:"result"`
}

// Len reports the number of completed entries in the memo cache
// (in-flight solves excluded). It reads one atomic — metrics scrapes
// and flush-loop clean checks call it per scenario, and walking the
// cache under the mutex would stall concurrent evaluations for nothing.
func (g *Engine) Len() int { return int(g.done.Load()) }

// Snapshot writes every completed cache entry to w as versioned JSON
// and reports how many entries it wrote. In-flight solves are skipped,
// not waited for; erred entries never sit in the cache. Entries are
// sorted by key, so equal caches snapshot byte-identically.
func (g *Engine) Snapshot(w io.Writer) (int, error) {
	g.mu.Lock()
	entries := make([]snapshotEntry, 0, len(g.cache))
	for k, e := range g.cache {
		select {
		case <-e.ready:
			if e.err == nil {
				entries = append(entries, snapshotEntry{Key: k.spec, Result: e.res})
			}
		default: // still solving; its caller will cache it, not us
		}
	}
	g.mu.Unlock()

	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	enc := json.NewEncoder(w)
	if err := enc.Encode(snapshotFile{
		Version:     SnapshotVersion,
		Fingerprint: g.fp,
		Entries:     entries,
	}); err != nil {
		return 0, fmt.Errorf("engine: writing snapshot: %w", err)
	}
	return len(entries), nil
}

// Restore merges a snapshot into the cache and reports how many entries
// it added. The snapshot must carry this engine's format version and
// fingerprint — a dump taken under a different vulnerability dataset,
// policy or schedule fails with ErrSnapshotFingerprint and changes
// nothing. Entries whose key is already cached (or being solved) are
// skipped: live results win over persisted ones.
func (g *Engine) Restore(r io.Reader) (int, error) {
	var snap snapshotFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
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
	// Validate before touching the cache: a corrupt snapshot must not
	// half-merge.
	for _, se := range snap.Entries {
		if err := se.Result.Spec.Validate(); err != nil {
			return 0, fmt.Errorf("%w: entry %q: %v", ErrSnapshotCorrupt, se.Key, err)
		}
		if got := se.Result.Spec.Key(); got != se.Key {
			return 0, fmt.Errorf("%w: entry keyed %q holds a result for %q",
				ErrSnapshotCorrupt, se.Key, got)
		}
	}

	restored := 0
	g.mu.Lock()
	for _, se := range snap.Entries {
		k := key{fp: g.fp, spec: se.Key}
		if _, exists := g.cache[k]; exists {
			continue
		}
		e := &entry[redundancy.Result]{ready: make(chan struct{}), res: se.Result}
		close(e.ready)
		g.cache[k] = e
		restored++
	}
	g.mu.Unlock()
	g.done.Add(uint64(restored))
	return restored, nil
}
