package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redpatch"
)

// fuzzRoutes are the request bodies FuzzRequestBodies drives, each with
// the type its handler decodes into and whether a 200 is an NDJSON
// stream. A seed file in testdata/requests names its route by the
// prefix before the first "-".
var fuzzRoutes = []struct {
	name, path string
	body       func() any
	stream     bool
}{
	{"evaluate", "/api/v2/evaluate", func() any { return new(evaluateV2Request) }, false},
	{"sweep", "/api/v2/sweep/stream", func() any { return new(sweepV2Request) }, true},
	{"rollout", "/api/v2/rollout/sweep", func() any { return new(rolloutSweepRequest) }, true},
	{"fleet", "/api/v2/fleet/register", func() any { return new(fleetRegisterRequest) }, false},
}

// FuzzRequestBodies posts arbitrary bodies to the evaluate, sweep/stream,
// rollout/sweep and fleet/register routes. No body may get a 5xx, every
// body decodeJSON rejects must get a 400, and every 200 stream must end
// in exactly one done or error line. Registered systems stay registered
// across inputs, so the fleet cap (the sweep cap, 64 here) is reached
// and enforced too.
func FuzzRequestBodies(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "requests", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed bodies under testdata/requests: %v", err)
	}
	for _, path := range seeds {
		body, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		prefix, _, _ := strings.Cut(filepath.Base(path), "-")
		route := -1
		for i, r := range fuzzRoutes {
			if r.name == prefix {
				route = i
			}
		}
		if route < 0 {
			f.Fatalf("seed %s names no route", path)
		}
		f.Add(uint8(route), body)
	}
	study, err := redpatch.NewCaseStudyWithConfig(redpatch.Config{Workers: 2})
	if err != nil {
		f.Fatal(err)
	}
	// Small caps keep each accepted sweep cheap; the checks that enforce
	// them run as in production.
	s, err := newServer(study, serverConfig{maxDesigns: 64, maxReplicas: 8})
	if err != nil {
		f.Fatal(err)
	}
	h := s.handler()
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		r := fuzzRoutes[int(route)%len(fuzzRoutes)]
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(body)))
		if w.Code >= http.StatusInternalServerError {
			t.Fatalf("%s %q: status %d: %s", r.path, body, w.Code, w.Body)
		}
		derr := decodeJSON(bytes.NewReader(body), r.body())
		if derr != nil && w.Code != http.StatusBadRequest {
			t.Fatalf("%s %q: decodeJSON rejects it (%v) but the status is %d", r.path, body, derr, w.Code)
		}
		if w.Code != http.StatusOK || !r.stream {
			return
		}
		lines := strings.Split(strings.TrimSuffix(w.Body.String(), "\n"), "\n")
		ends := 0
		for i, line := range lines {
			var probe map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &probe); err != nil {
				t.Fatalf("%s %q: line %d is not a JSON object: %q", r.path, body, i, line)
			}
			// Progress events carry a "done" count; a trailer's is true.
			_, failed := probe["error"]
			if string(probe["done"]) == "true" || failed {
				ends++
				if i != len(lines)-1 {
					t.Fatalf("%s %q: line %d ends the stream but %d lines follow", r.path, body, i, len(lines)-1-i)
				}
			}
		}
		if ends != 1 {
			t.Fatalf("%s %q: stream ends in %d done or error lines, want 1", r.path, body, ends)
		}
	})
}
