package main

// GET /readyz is the readiness probe, deliberately distinct from the
// GET /healthz liveness check: healthz answers 200 whenever the
// process is up, while readyz answers 503 once shutdown begins, so a
// load balancer stops routing new requests to a draining daemon while
// its in-flight ones finish. Every startup step (scenario registry,
// cache restore) completes inside newServer, before any listener
// exists, so a daemon that answers at all is ready until it drains.

import "net/http"

// drain marks the daemon as shutting down: readyz fails from here on.
// Draining only ever begins; it never reverses.
func (s *server) drain() { s.draining.Store(true) }

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}
