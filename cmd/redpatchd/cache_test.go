package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"redpatch"
)

const baseEvalBody = `{"spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":2},{"role":"db","replicas":1}]}}`

// TestCachePersistsAcrossRestart is the acceptance path: a daemon with
// -cache-dir evaluates a design, dumps on shutdown, and its successor
// serves the same design from the persisted cache — zero solves, one
// hit, all visible in /metrics.
func TestCachePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	first := mustServer(t, newStudy(t), serverConfig{cacheDir: dir})
	h := first.handler()
	if w := do(t, h, http.MethodPost, "/api/v2/evaluate", baseEvalBody); w.Code != http.StatusOK {
		t.Fatalf("evaluate status = %d: %s", w.Code, w.Body)
	}
	first.dumpCaches() // what main does after graceful Shutdown
	if _, err := os.Stat(filepath.Join(dir, "default.cache.json")); err != nil {
		t.Fatalf("no dump written: %v", err)
	}

	second := mustServer(t, newStudy(t), serverConfig{cacheDir: dir})
	h2 := second.handler()
	body := scrape(t, h2)
	if got := metricValue(t, body, `redpatchd_engine_cache_entries{scenario="default"}`); got != "1" {
		t.Fatalf("restored cache entries = %s, want 1", got)
	}
	if got := metricValue(t, body, `redpatchd_cache_restored_entries_total`); got != "1" {
		t.Fatalf("restored counter = %s, want 1", got)
	}

	w := do(t, h2, http.MethodPost, "/api/v2/evaluate", baseEvalBody)
	if w.Code != http.StatusOK {
		t.Fatalf("restart evaluate status = %d: %s", w.Code, w.Body)
	}
	body = scrape(t, h2)
	if got := metricValue(t, body, `redpatchd_engine_solves_total{scenario="default"}`); got != "0" {
		t.Fatalf("restarted daemon re-solved: solves = %s, want 0", got)
	}
	if got := metricValue(t, body, `redpatchd_engine_cache_hits_total{scenario="default"}`); got != "1" {
		t.Fatalf("warm hit not recorded: hits = %s, want 1", got)
	}
}

// TestCacheRejectsForeignDump: a dump written under a different patch
// policy (and so a different fingerprint) must be rejected on load —
// the daemon starts cold and counts the rejection — never merged.
func TestCacheRejectsForeignDump(t *testing.T) {
	dir := t.TempDir()

	foreign, err := redpatch.NewCaseStudyWithConfig(redpatch.Config{PatchAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := foreign.EvaluateSpec(redpatch.ClassicSpec("d", 1, 2, 2, 1)); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "default.cache.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := foreign.SnapshotCache(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// The daemon's default scenario uses the critical-threshold policy;
	// the patch-all dump must not warm it.
	s := mustServer(t, newStudy(t), serverConfig{cacheDir: dir})
	body := scrape(t, s.handler())
	if got := metricValue(t, body, `redpatchd_engine_cache_entries{scenario="default"}`); got != "0" {
		t.Fatalf("foreign dump merged: cache entries = %s, want 0", got)
	}
	if got := metricValue(t, body, `redpatchd_cache_restore_errors_total`); got != "1" {
		t.Fatalf("restore errors = %s, want 1", got)
	}
	if got := metricValue(t, body, `redpatchd_cache_restored_entries_total`); got != "0" {
		t.Fatalf("restored entries = %s, want 0", got)
	}
}

// TestCacheRejectsV2Dump: a dump in the retired version-2 format (whole
// results with path detail, under this scenario's own fingerprint) has
// no reader. The daemon counts the restore error, starts cold and still
// serves.
func TestCacheRejectsV2Dump(t *testing.T) {
	dir := t.TempDir()
	study := newStudy(t)
	var v3 strings.Builder
	if _, err := study.SnapshotCache(&v3); err != nil {
		t.Fatal(err)
	}
	var head struct{ Fingerprint string }
	if err := json.Unmarshal([]byte(v3.String()), &head); err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile("../../internal/engine/testdata/snapshot-v2.json")
	if err != nil {
		t.Fatal(err)
	}
	v2 = bytes.Replace(v2, []byte(`"fingerprint":"fuzz"`), []byte(`"fingerprint":`+strconv.Quote(head.Fingerprint)), 1)
	if err := os.WriteFile(filepath.Join(dir, "default.cache.json"), v2, 0o644); err != nil {
		t.Fatal(err)
	}

	s := mustServer(t, study, serverConfig{cacheDir: dir})
	h := s.handler()
	body := scrape(t, h)
	if got := metricValue(t, body, `redpatchd_cache_restore_errors_total`); got != "1" {
		t.Fatalf("restore errors = %s, want 1", got)
	}
	if got := metricValue(t, body, `redpatchd_engine_cache_entries{scenario="default"}`); got != "0" {
		t.Fatalf("v2 dump merged: cache entries = %s, want 0", got)
	}
	if w := do(t, h, http.MethodPost, "/api/v2/evaluate", baseEvalBody); w.Code != http.StatusOK {
		t.Fatalf("evaluate after a rejected dump: status %d: %s", w.Code, w.Body)
	}
	if got := metricValue(t, scrape(t, h), `redpatchd_engine_solves_total{scenario="default"}`); got != "1" {
		t.Fatalf("solves = %s, want 1 (served cold)", got)
	}
}

// TestCachePersistsRolloutPoints: rollout points ride the dump too, so a
// restarted daemon serves a repeated rollout sweep without solving.
func TestCachePersistsRolloutPoints(t *testing.T) {
	dir := t.TempDir()
	body := `{"spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":2},{"role":"db","replicas":1}]},
		"schedule":{"strategy":"rolling","steps":2}}`
	first := mustServer(t, newStudy(t), serverConfig{cacheDir: dir})
	if w := do(t, first.handler(), http.MethodPost, "/api/v2/rollout/sweep", body); w.Code != http.StatusOK {
		t.Fatalf("rollout sweep status = %d: %s", w.Code, w.Body)
	}
	first.dumpCaches()

	second := mustServer(t, newStudy(t), serverConfig{cacheDir: dir})
	h := second.handler()
	if got := metricValue(t, scrape(t, h), `redpatchd_cache_restored_entries_total`); got != "3" {
		t.Fatalf("restored entries = %s, want 3 rollout points", got)
	}
	w := do(t, h, http.MethodPost, "/api/v2/rollout/sweep", body)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"done":true`) {
		t.Fatalf("restart rollout sweep status = %d: %s", w.Code, w.Body)
	}
	m := scrape(t, h)
	if got := metricValue(t, m, `redpatchd_engine_rollout_solves_total{scenario="default"}`); got != "0" {
		t.Fatalf("restarted daemon re-solved rollout points: %s", got)
	}
	if got := metricValue(t, m, `redpatchd_engine_rollout_cache_hits_total{scenario="default"}`); got != "3" {
		t.Fatalf("rollout hits = %s, want 3", got)
	}
}

// TestScenarioRegistrationWarmsFromCache: a scenario registered after a
// restart picks up the cache its earlier incarnation dumped, keyed by
// its own name and guarded by its own fingerprint.
func TestScenarioRegistrationWarmsFromCache(t *testing.T) {
	dir := t.TempDir()
	createBody := `{"name":"weekly","config":{"intervalHours":168}}`
	evalBody := `{"scenario":"weekly","spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":1},{"role":"app","replicas":1},{"role":"db","replicas":1}]}}`

	first := mustServer(t, newStudy(t), serverConfig{cacheDir: dir})
	h := first.handler()
	if w := do(t, h, http.MethodPost, "/api/v2/scenarios", createBody); w.Code != http.StatusCreated {
		t.Fatalf("create status = %d: %s", w.Code, w.Body)
	}
	if w := do(t, h, http.MethodPost, "/api/v2/evaluate", evalBody); w.Code != http.StatusOK {
		t.Fatalf("evaluate status = %d: %s", w.Code, w.Body)
	}
	first.dumpCaches()
	if _, err := os.Stat(filepath.Join(dir, "weekly.cache.json")); err != nil {
		t.Fatalf("scenario dump missing: %v", err)
	}

	second := mustServer(t, newStudy(t), serverConfig{cacheDir: dir})
	h2 := second.handler()
	if w := do(t, h2, http.MethodPost, "/api/v2/scenarios", createBody); w.Code != http.StatusCreated {
		t.Fatalf("re-create status = %d: %s", w.Code, w.Body)
	}
	if w := do(t, h2, http.MethodPost, "/api/v2/evaluate", evalBody); w.Code != http.StatusOK {
		t.Fatalf("re-evaluate status = %d: %s", w.Code, w.Body)
	}
	body := scrape(t, h2)
	if got := metricValue(t, body, `redpatchd_engine_solves_total{scenario="weekly"}`); got != "0" {
		t.Fatalf("re-registered scenario re-solved: solves = %s, want 0", got)
	}
	if got := metricValue(t, body, `redpatchd_engine_cache_hits_total{scenario="weekly"}`); got != "1" {
		t.Fatalf("warm hit not recorded: hits = %s", got)
	}

	// Re-registering under a different policy must reject the dump.
	third := mustServer(t, newStudy(t), serverConfig{cacheDir: dir})
	h3 := third.handler()
	if w := do(t, h3, http.MethodPost, "/api/v2/scenarios",
		`{"name":"weekly","config":{"intervalHours":24}}`); w.Code != http.StatusCreated {
		t.Fatalf("conflicting re-create status = %d: %s", w.Code, w.Body)
	}
	body = scrape(t, h3)
	if got := metricValue(t, body, `redpatchd_engine_cache_entries{scenario="weekly"}`); got != "0" {
		t.Fatalf("mismatched scenario dump merged: entries = %s, want 0", got)
	}
	if got := metricValue(t, body, `redpatchd_cache_restore_errors_total`); got != "1" {
		t.Fatalf("restore errors = %s, want 1", got)
	}
}

// TestDeletedScenarioDumpsAfterRecreate: deleting a scenario must drop
// its dirty-tracking state, so a successor under the same name (here
// with a different policy, whose load rejects the old file) still gets
// its solves dumped instead of being "clean" at the stale count.
func TestDeletedScenarioDumpsAfterRecreate(t *testing.T) {
	dir := t.TempDir()
	evalBody := `{"scenario":"x","spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":1},{"role":"app","replicas":1},{"role":"db","replicas":1}]}}`

	s := mustServer(t, newStudy(t), serverConfig{cacheDir: dir})
	h := s.handler()
	if w := do(t, h, http.MethodPost, "/api/v2/scenarios", `{"name":"x","config":{"intervalHours":168}}`); w.Code != http.StatusCreated {
		t.Fatalf("create status = %d: %s", w.Code, w.Body)
	}
	if w := do(t, h, http.MethodPost, "/api/v2/evaluate", evalBody); w.Code != http.StatusOK {
		t.Fatalf("evaluate status = %d: %s", w.Code, w.Body)
	}
	s.dumpCaches()
	if w := do(t, h, http.MethodDelete, "/api/v2/scenarios/x", ""); w.Code != http.StatusNoContent {
		t.Fatalf("delete status = %d: %s", w.Code, w.Body)
	}
	// The recreate's load rejects the old-policy file (fingerprint), so
	// the new engine starts cold; its solve must still reach disk.
	if w := do(t, h, http.MethodPost, "/api/v2/scenarios", `{"name":"x","config":{"intervalHours":24}}`); w.Code != http.StatusCreated {
		t.Fatalf("re-create status = %d: %s", w.Code, w.Body)
	}
	if w := do(t, h, http.MethodPost, "/api/v2/evaluate", evalBody); w.Code != http.StatusOK {
		t.Fatalf("re-evaluate status = %d: %s", w.Code, w.Body)
	}
	s.dumpCaches()
	data, err := os.ReadFile(filepath.Join(dir, "x.cache.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "interval=24") {
		t.Fatal("recreated scenario's solves were not dumped (file still holds the old policy)")
	}
}

// TestDumpSkipsCleanCache: a second dumpCaches with no new solves must
// not rewrite the file.
func TestDumpSkipsCleanCache(t *testing.T) {
	dir := t.TempDir()
	s := mustServer(t, newStudy(t), serverConfig{cacheDir: dir})
	h := s.handler()
	if w := do(t, h, http.MethodPost, "/api/v2/evaluate", baseEvalBody); w.Code != http.StatusOK {
		t.Fatalf("evaluate status = %d: %s", w.Code, w.Body)
	}
	s.dumpCaches()
	path := filepath.Join(dir, "default.cache.json")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	s.dumpCaches()
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Fatal("clean cache was re-dumped")
	}
	body := scrape(t, h)
	if got := metricValue(t, body, `redpatchd_cache_flushes_total`); got != "1" {
		t.Fatalf("flushes = %s, want 1", got)
	}
}

// TestNewServerRejectsUnusableCacheDir: a cache path that cannot be a
// directory fails construction instead of silently running without
// persistence.
func TestNewServerRejectsUnusableCacheDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newServer(newStudy(t), serverConfig{cacheDir: file}); err == nil {
		t.Fatal("newServer accepted a file as cache dir")
	}
}

// TestFleetDumpCountsFlushes: the fleet dump goes through the same
// writer as the scenario caches, so a written fleet.json bumps
// redpatchd_cache_flushes_total and a failed one bumps
// redpatchd_cache_flush_errors_total — here the cache directory is
// replaced by a regular file, so creating the temp file fails.
func TestFleetDumpCountsFlushes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s := mustServer(t, newStudy(t), serverConfig{cacheDir: dir})
	h := s.handler()
	if w := do(t, h, http.MethodPost, "/api/v2/fleet/register", `{"systems":[`+fleetSystemA+`]}`); w.Code != http.StatusOK {
		t.Fatalf("register status = %d: %s", w.Code, w.Body)
	}
	if !s.dumpCaches() {
		t.Fatal("fleet dump failed on a healthy cache dir")
	}
	if got := metricValue(t, scrape(t, h), `redpatchd_cache_flushes_total`); got != "1" {
		t.Fatalf("flushes after a fleet dump = %s, want 1", got)
	}

	if w := do(t, h, http.MethodPost, "/api/v2/fleet/register", `{"systems":[`+fleetSystemB+`]}`); w.Code != http.StatusOK {
		t.Fatalf("register status = %d: %s", w.Code, w.Body)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if s.dumpCaches() {
		t.Fatal("fleet dump succeeded with the cache dir replaced by a file")
	}
	body := scrape(t, h)
	if got := metricValue(t, body, `redpatchd_cache_flush_errors_total`); got != "1" {
		t.Fatalf("flush errors = %s, want 1", got)
	}
	if got := metricValue(t, body, `redpatchd_cache_flushes_total`); got != "1" {
		t.Fatalf("flushes after a failed dump = %s, want 1", got)
	}
}

// TestCorruptFleetDumpCountsRestoreError: a fleet.json that does not
// parse, or that holds one system register would refuse beside a valid
// one, is rejected like a corrupt scenario dump — the fleet starts
// empty and redpatchd_cache_restore_errors_total counts the rejection.
func TestCorruptFleetDumpCountsRestoreError(t *testing.T) {
	dumps := map[string]string{"not json": "{not json"}
	for name, sys := range invalidFleetSystems {
		dumps[name] = `{"version":1,"systems":[` + fleetSystemA + `,` + sys + `]}`
	}
	for name, dump := range dumps {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fleet.json"), []byte(dump), 0o644); err != nil {
			t.Fatal(err)
		}
		s := mustServer(t, newStudy(t), serverConfig{cacheDir: dir})
		if n := s.fleetReg.Len(); n != 0 {
			t.Errorf("%s: rejected dump restored %d systems", name, n)
		}
		if got := metricValue(t, scrape(t, s.handler()), `redpatchd_cache_restore_errors_total`); got != "1" {
			t.Errorf("%s: restore errors = %s, want 1", name, got)
		}
	}
}
