#!/usr/bin/env bash
# Warm-cache restart smoke for redpatchd, runnable locally or in CI.
#
# Boots the daemon with -cache-dir, evaluates a design, registers a
# fleet system, shuts down gracefully, restarts on the same cache dir
# and asserts the design is served from the persisted memo cache (zero
# solves, one hit, straight off /metrics), that the fleet registry
# survived the restart, that ?explain=1 and /debug/traces surface
# provenance, and that the mixed-version rollout endpoint streams a
# frontier. Leaves traces.json in the working directory for artifact
# upload.
set -euo pipefail

ADDR=${ADDR:-127.0.0.1:18080}
BIN=${BIN:-/tmp/redpatchd}

go build -o "$BIN" ./cmd/redpatchd
CACHE=$(mktemp -d)
BODY='{"spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":2},{"role":"db","replicas":1}]}}'

wait_healthz() {
  for _ in $(seq 1 50); do
    curl -sf "$ADDR/healthz" >/dev/null && return 0
    sleep 0.2
  done
  echo "daemon on $ADDR never became healthy" >&2
  return 1
}

"$BIN" -addr "$ADDR" -cache-dir "$CACHE" &
PID=$!
wait_healthz
curl -sf -X POST "$ADDR/api/v2/evaluate" -d "$BODY" >/dev/null
curl -s "$ADDR/metrics" | grep -F 'redpatchd_engine_solves_total{scenario="default"} 1'
curl -sf -X POST "$ADDR/api/v2/fleet/register" -d '{"systems":[{
  "id":"smoke-1","role":"app","windowMinutes":60,
  "tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":2},{"role":"db","replicas":1}]}]}' >/dev/null
kill -TERM "$PID"
wait "$PID"
test -s "$CACHE/default.cache.json"
test -s "$CACHE/fleet.json"

"$BIN" -addr "$ADDR" -cache-dir "$CACHE" -pprof -log-format json &
PID=$!
wait_healthz
curl -sf -X POST "$ADDR/api/v2/evaluate" -d "$BODY" >/dev/null
METRICS=$(curl -s "$ADDR/metrics")
echo "$METRICS" | grep -F 'redpatchd_engine_solves_total{scenario="default"} 0'
echo "$METRICS" | grep -F 'redpatchd_engine_cache_hits_total{scenario="default"} 1'
echo "$METRICS" | grep -F 'redpatchd_cache_restored_entries_total 1'
# The fleet registry rode the restart: the registered system is back
# and planning it runs on the restored warm cache.
echo "$METRICS" | grep -F 'redpatchd_fleet_systems 1'
curl -sf -X POST "$ADDR/api/v2/fleet/plan" -d '{}' \
  | grep -F '"smoke-1"' >/dev/null
curl -s "$ADDR/metrics" | grep -F 'redpatchd_fleet_plans_total 1'

# Provenance surfaces: ?explain=1 names the solver that answered (a
# design the restored cache has not seen, so the solvers actually
# run), /debug/traces (behind -pprof) retains the request trace with
# its root http.request span.
curl -sf -X POST "$ADDR/api/v2/evaluate?explain=1" \
  -d '{"spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":3},{"role":"app","replicas":2},{"role":"db","replicas":1}]}}' \
  | grep -F '"availabilitySolver"'
curl -sf "$ADDR/debug/traces" | tee traces.json \
  | grep -F '"http.request"'

# Mixed-version rollout: a one-shot schedule streams NDJSON ending in
# a done trailer that carries the security-availability frontier.
ROLLOUT=$(curl -sf -X POST "$ADDR/api/v2/rollout/sweep" \
  -d '{"spec":{"tiers":[{"role":"dns","replicas":1},{"role":"web","replicas":2},{"role":"app","replicas":2},{"role":"db","replicas":1}]},"schedule":{"strategy":"one-shot"}}')
echo "$ROLLOUT" | grep -F '"done":true' >/dev/null
echo "$ROLLOUT" | grep -F '"frontier"' >/dev/null

kill -TERM "$PID"
wait "$PID"
echo "warm-cache restart + trace + rollout surfaces verified"
