package main

// Warm-cache persistence: with -cache-dir set, every scenario's engine
// memo cache is dumped to <dir>/<scenario>.cache.json — on graceful
// shutdown, periodically while dirty, and read back on startup and on
// scenario registration — so a restarted daemon answers previously
// evaluated designs without re-solving a single model. Dumps are
// fingerprinted by the vulnerability dataset, patch policy and schedule
// (see redpatch.Config); a file written under different inputs is
// rejected with a logged reason and the cache stays cold, which is
// always safe: the worst case is re-solving.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	randv2 "math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"redpatch/internal/faultinject"
	"redpatch/internal/fleet"
)

// cacheStore owns the cache directory. Scenario names are pre-validated
// against scenarioName (letters, digits, dot, underscore, dash), so
// they are safe path components by construction.
type cacheStore struct {
	dir   string
	m     *serverMetrics
	log   *slog.Logger
	chaos *faultinject.Injector // "persist" site; nil in production

	// dumpMu serializes dump() whole: a periodic-flush tick racing the
	// shutdown dump must never rename an older snapshot over a newer
	// one while recording the newer count.
	dumpMu sync.Mutex

	mu     sync.Mutex
	dumped map[string]int // cache size at the last load/dump per scenario
	// fleetRev is the fleet registry revision at the last load/dump;
	// zero means "empty registry persisted", so a never-touched fleet
	// writes no file.
	fleetRev uint64
	// inOutage marks a persistence outage in progress: the first failed
	// dump logs at Error, repeats at Debug (a broken disk must not flood
	// the log once per backoff retry), and the next successful write
	// logs the recovery at Info.
	inOutage bool
}

func newCacheStore(dir string, m *serverMetrics, logger *slog.Logger) (*cacheStore, error) {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating cache dir: %w", err)
	}
	// Sweep temp files a crashed predecessor left mid-dump; the rename
	// is atomic, so anything *.tmp is garbage by definition.
	if stale, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, p := range stale {
			if err := os.Remove(p); err == nil {
				logger.Info("cache: removed stale temp dump", "path", p)
			}
		}
	}
	return &cacheStore{dir: dir, m: m, log: logger, dumped: make(map[string]int)}, nil
}

func (cs *cacheStore) path(name string) string {
	return filepath.Join(cs.dir, name+".cache.json")
}

// readFile hands a persisted dump to restore, as the open file, if it
// exists. Every failure — missing file aside — bumps the restore-error
// counter, is logged, and leaves the state cold: a mismatched or
// corrupt dump must never be merged. Scenario caches and the fleet
// registry both load through it; a scenario's engine reads its file in
// one buffer sized to the file (engine.Restore sizes it by Stat).
func (cs *cacheStore) readFile(path string, restore func(io.Reader) error, logArgs ...any) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return
	}
	if err == nil {
		err = restore(f)
		f.Close()
	}
	if err != nil {
		cs.m.cacheRestoreErrors.Inc()
		cs.log.Error("cache: rejecting dump", append(logArgs, "path", path, "error", err)...)
	}
}

// load restores a scenario's cache file if one exists.
func (cs *cacheStore) load(sc *scenario) {
	cs.readFile(cs.path(sc.name), func(r io.Reader) error {
		n, err := sc.study.RestoreCache(r)
		if err != nil {
			return err
		}
		// Record the restored count, not the live CacheEntries(): solves
		// that completed while the restore ran are not on disk yet, and
		// counting them as dumped would make the clean check skip them.
		cs.mu.Lock()
		cs.dumped[sc.name] = n
		cs.mu.Unlock()
		cs.m.cacheRestoredEntries.Add(float64(n))
		cs.log.Info("cache: restored designs", "scenario", sc.name, "designs", n, "path", cs.path(sc.name))
		return nil
	}, "scenario", sc.name)
}

// forget drops a scenario's dirty-tracking state on deletion, so a
// future incarnation under the same name never inherits a stale "clean"
// count that would suppress its dumps.
func (cs *cacheStore) forget(name string) {
	cs.mu.Lock()
	delete(cs.dumped, name)
	cs.mu.Unlock()
}

// writeFile persists one dump atomically: the injected-fault hit, a
// temp file beside path, write, close and rename. A written file bumps
// redpatchd_cache_flushes_total and ends a persistence outage; any
// failure bumps redpatchd_cache_flush_errors_total and logs at Error on
// the first failure of an outage and at Debug on repeats, so a dead
// disk logs once, not once per backoff retry. Scenario caches and the
// fleet registry both write through it. Returns false when the write
// failed, so the flush loop can retry with backoff instead of waiting
// out a full interval. Callers hold dumpMu.
func (cs *cacheStore) writeFile(path string, write func(io.Writer) error, logArgs ...any) bool {
	err := cs.chaos.Hit("persist")
	if err == nil {
		err = writeAtomic(path, write)
	}
	cs.mu.Lock()
	wasOutage := cs.inOutage
	cs.inOutage = err != nil
	cs.mu.Unlock()
	if err != nil {
		cs.m.cacheFlushErrors.Inc()
		logArgs = append(logArgs, "path", path, "error", err)
		if wasOutage {
			cs.log.Debug("cache: flush failed", logArgs...)
		} else {
			cs.log.Error("cache: flush failed", logArgs...)
		}
		return false
	}
	cs.m.cacheFlushes.Inc()
	if wasOutage {
		cs.log.Info("cache: persistence recovered")
	}
	return true
}

// writeAtomic writes path through a temp file in the same directory and
// a rename, so a crash mid-write never leaves a torn dump behind (a
// leftover *.tmp is swept at startup).
func writeAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = write(tmp)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// dump writes one scenario's cache, skipping the write when no design
// finished since the last dump. Returns false when the write failed.
func (cs *cacheStore) dump(sc *scenario) bool {
	cs.dumpMu.Lock()
	defer cs.dumpMu.Unlock()
	entries := sc.study.CacheEntries()
	cs.mu.Lock()
	clean := cs.dumped[sc.name] == entries
	cs.mu.Unlock()
	if clean {
		return true
	}
	var n int
	ok := cs.writeFile(cs.path(sc.name), func(w io.Writer) (err error) {
		n, err = sc.study.SnapshotCache(w)
		return err
	}, "scenario", sc.name)
	if ok {
		cs.mu.Lock()
		cs.dumped[sc.name] = n
		cs.mu.Unlock()
		cs.log.Info("cache: dumped designs", "scenario", sc.name, "designs", n, "path", cs.path(sc.name))
	}
	return ok
}

// fleetPath is the fleet registry's dump file. Scenario dumps end in
// ".cache.json", so a scenario named "fleet" cannot collide with it.
func (cs *cacheStore) fleetPath() string {
	return filepath.Join(cs.dir, "fleet.json")
}

// loadFleet restores the persisted fleet registry if a dump exists; a
// rejected dump leaves the fleet empty — re-registering is always safe.
func (cs *cacheStore) loadFleet(reg *fleet.Registry) {
	cs.readFile(cs.fleetPath(), func(r io.Reader) error {
		data, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		n, err := reg.Restore(data)
		if err != nil {
			return err
		}
		cs.mu.Lock()
		cs.fleetRev = reg.Rev()
		cs.mu.Unlock()
		cs.log.Info("cache: restored fleet", "systems", n, "path", cs.fleetPath())
		return nil
	}, "dump", "fleet")
}

// dumpFleet writes the fleet registry, skipping the write when the
// registry has not changed since the last load or dump. Returns false
// when the write failed.
func (cs *cacheStore) dumpFleet(reg *fleet.Registry) bool {
	cs.dumpMu.Lock()
	defer cs.dumpMu.Unlock()
	rev := reg.Rev()
	cs.mu.Lock()
	clean := cs.fleetRev == rev
	cs.mu.Unlock()
	if clean {
		return true
	}
	ok := cs.writeFile(cs.fleetPath(), func(w io.Writer) error {
		data, err := reg.Snapshot()
		if err == nil {
			_, err = w.Write(data)
		}
		return err
	}, "dump", "fleet")
	if ok {
		cs.mu.Lock()
		cs.fleetRev = rev
		cs.mu.Unlock()
		cs.log.Info("cache: dumped fleet", "path", cs.fleetPath())
	}
	return ok
}

// dumpCaches dumps every registered scenario and the fleet registry;
// redpatchd calls it on graceful shutdown and from the periodic flush
// loop. Returns false when any dump failed.
func (s *server) dumpCaches() bool {
	if s.store == nil {
		return true
	}
	ok := true
	for _, sc := range s.reg.list() {
		if !s.store.dump(sc) {
			ok = false
		}
	}
	if !s.store.dumpFleet(s.fleetReg) {
		ok = false
	}
	return ok
}

// flushLoop periodically dumps dirty scenario caches until the context
// ends. A crash between flushes loses at most one interval of solves —
// re-solvable by definition — never the file's integrity, since dumps
// are written atomically. Failed flushes retry with full-jitter capped
// exponential backoff (uniform over (0, min(1s<<n, interval)]) rather
// than leaving a whole interval of solves unprotected; each scheduled
// retry bumps redpatchd_persist_retries_total, and the outage logging
// above keeps a dead disk to one Error line per outage.
func (s *server) flushLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTimer(interval)
	defer t.Stop()
	retries := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if s.dumpCaches() {
			retries = 0
			t.Reset(interval)
			continue
		}
		retries++
		s.metrics.persistRetries.Inc()
		t.Reset(persistBackoff(retries, interval))
	}
}

// persistBackoff is the delay before persistence retry n (1-based):
// full jitter over a capped exponential upper bound — uniform in
// (0, min(1s<<(n-1), interval)] — so a fleet of daemons sharing a
// recovered disk does not hammer it back down in lockstep.
func persistBackoff(retries int, interval time.Duration) time.Duration {
	upper := time.Second << min(retries-1, 20)
	if upper > interval {
		upper = interval
	}
	if upper <= 0 {
		return interval
	}
	return randv2.N(upper) + 1
}
