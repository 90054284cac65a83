package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"redpatch"
)

// goldenCases pin the wire of the routes the benchmark drives: each
// posts a body from testdata/requests and compares the whole response
// body, byte for byte, with testdata/golden/<name>. A change to any of
// these bytes is a wire change and must be made on purpose.
var goldenCases = []struct {
	name, path, request string
	status              int
}{
	{"evaluate-base.json", "/api/v2/evaluate", "evaluate-base.json", http.StatusOK},
	{"evaluate-mixed-web.json", "/api/v2/evaluate", "evaluate-mixed-web.json", http.StatusOK},
	{"evaluate-unknown-field.json", "/api/v2/evaluate", "evaluate-unknown-field.json", http.StatusBadRequest},
	{"evaluate-trailing-bracket.json", "/api/v2/evaluate", "evaluate-trailing-bracket.json", http.StatusBadRequest},
	{"sweep-classic.ndjson", "/api/v2/sweep/stream", "sweep-classic.json", http.StatusOK},
	{"rollout-rolling.ndjson", "/api/v2/rollout/sweep", "rollout-rolling.json", http.StatusOK},
	{"rollout-canary.ndjson", "/api/v2/rollout/sweep", "rollout-canary.json", http.StatusOK},
	{"rollout-blue-green.ndjson", "/api/v2/rollout/sweep", "rollout-blue-green.json", http.StatusOK},
}

// TestGoldenResponses runs every golden case on a one-worker daemon, so
// stream lines arrive in enumeration order, with progress events pushed
// out to an hour, so none is written.
func TestGoldenResponses(t *testing.T) {
	study, err := redpatch.NewCaseStudyWithConfig(redpatch.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := mustServer(t, study, serverConfig{progressEvery: time.Hour}).handler()
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			body, err := os.ReadFile(filepath.Join("testdata", "requests", c.request))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden", c.name))
			if err != nil {
				t.Fatal(err)
			}
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(body)))
			if w.Code != c.status {
				t.Fatalf("status %d, want %d: %s", w.Code, c.status, w.Body)
			}
			if got := w.Body.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("body differs from testdata/golden/%s:\ngot:  %s\nwant: %s", c.name, got, want)
			}
		})
	}
}
