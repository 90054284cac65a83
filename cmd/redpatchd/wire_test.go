package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"redpatch"
)

// wireRoutes are the request types readRequest decodes, by the route
// prefix of their seed files in testdata/requests.
var wireRoutes = []struct {
	prefix string
	body   func() any
}{
	{"evaluate", func() any { return new(evaluateV2Request) }},
	{"sweep", func() any { return new(sweepV2Request) }},
	{"rollout", func() any { return new(rolloutSweepRequest) }},
}

// wireEdgeBodies are bodies at the edges of the reader's grammar: each
// one either decodes exactly as decodeJSON decodes it or goes to
// decodeJSON.
var wireEdgeBodies = []string{
	` { "spec" : { "tiers" : [ { "role" : "dns" , "replicas" : 1 } ] } } ` + "\n\t\r",
	`{"spec":{"tiers":[]}}`,
	`{"spec":{}}`,
	`{}`,
	`{"spec":null}`,
	`{"Spec":{"tiers":[{"role":"dns","replicas":1}]}}`,
	`{"spec":{"tiers":[{"role":"dns","replicas":1}]},"spec":{"tiers":[]}}`,
	`{"spec":{"tiers":[{"role":"dns","role":"web","replicas":1}]}}`,
	`{"spec":{"tiers":[{"role":"dns","replicas":1}]}}`,
	`{"spec":{"name":"caf` + "\xc3\xa9" + `","tiers":[{"role":"dns","replicas":1}]}}`,
	`{"spec":{"tiers":[{"role":"dns","replicas":-0}]}}`,
	`{"spec":{"tiers":[{"role":"dns","replicas":01}]}}`,
	`{"spec":{"tiers":[{"role":"dns","replicas":1.0}]}}`,
	`{"spec":{"tiers":[{"role":"dns","replicas":1e2}]}}`,
	`{"spec":{"tiers":[{"role":"dns","replicas":999999999999999999}]}}`,
	`{"spec":{"tiers":[{"role":"dns","replicas":9999999999999999999}]}}`,
	`{"spec":{"tiers":[{"role":"dns","replicas":1},]}}`,
	`{"spec":{"tiers":[{"role":"dns","replicas":1}]},}`,
	`{"spec":{"tiers":[{"role":"dns","replicas":1}]}}}`,
	`{"spec":{"tiers":[{"role":"dns","replicas":1}]}} {}`,
	`{"scenario":"what-if","spec":{"tiers":[{"role":"web","replicas":2,"variant":"webalt"}]}}`,
	`{"tiers":[{"role":"web","min":1,"max":2,"variants":[]}],"scatter":{"maxAsp":2E-1,"minCoa":0.9962},"multi":{"maxAsp":-0.0,"maxNoev":9,"maxNoap":2,"maxNoep":1,"minCoa":1e400}}`,
	`{"tiers":[{"role":"web","min":1,"max":2,"variants":["","webalt"]}],"scatter":{"maxAsp":0.2,"minCoa":0.99}}`,
	`{"tiers":[{"role":"dns","min":1,"max":2}],"scatter":{}}`,
	`{"spec":{"tiers":[{"role":"dns","replicas":1}]},"schedule":{"strategy":"custom","order":[],"fractions":[[],[0,0.5e0,1]]}}`,
	`{"spec":{"tiers":[{"role":"dns","replicas":1}]},"schedule":{"strategy":"canary","steps":3,"canaryFraction":.5}}`,
	`{"spec":{"tiers":[{"role":"dns","replicas":1}]},"schedule":{"strategy":"canary","canaryFraction":-}}`,
	``,
	`[]`,
	`{"spec":{"tiers":[{"role":"dns","replicas":1}]}`,
}

// FuzzWireBodies pins readRequest's one-pass reader to decodeJSON: for
// every body and request type, the two make the same accept or reject
// decision with the same error, and accepted values are deeply equal —
// whether the reader decoded the body itself or handed it on. Seeds:
// every body in testdata/requests and wireEdgeBodies, under each route.
func FuzzWireBodies(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "requests", "*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed bodies under testdata/requests: %v", err)
	}
	var bodies [][]byte
	for _, path := range seeds {
		body, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	for _, body := range wireEdgeBodies {
		bodies = append(bodies, []byte(body))
	}
	for _, body := range bodies {
		for route := range wireRoutes {
			f.Add(uint8(route), body)
		}
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		r := wireRoutes[int(route)%len(wireRoutes)]
		want := r.body()
		werr := decodeJSON(bytes.NewReader(body), want)
		fast := r.body()
		if decodeBody(body, fast) {
			if werr != nil {
				t.Fatalf("%s %q: the reader accepts what decodeJSON rejects: %v", r.prefix, body, werr)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("%s %q: the reader decodes\n%#v\ndecodeJSON\n%#v", r.prefix, body, fast, want)
			}
		} else if !reflect.ValueOf(fast).Elem().IsZero() {
			t.Fatalf("%s %q: the reader refused the body but changed the value: %#v", r.prefix, body, fast)
		}
		got := r.body()
		err := readRequest(bytes.NewReader(body), got)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("%s %q: readRequest says %v, decodeJSON %v", r.prefix, body, err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %q: readRequest decodes\n%#v\ndecodeJSON\n%#v", r.prefix, body, got, want)
		}
	})
}

// TestWireReaderDecodesSeeds: every accepted seed body of the three
// routes is in the reader's grammar, except a step count too long for
// it, so the served paths never reach encoding/json.
func TestWireReaderDecodesSeeds(t *testing.T) {
	for _, r := range wireRoutes {
		seeds, err := filepath.Glob(filepath.Join("testdata", "requests", r.prefix+"-*.json"))
		if err != nil || len(seeds) == 0 {
			t.Fatalf("no %s seeds: %v", r.prefix, err)
		}
		for _, path := range seeds {
			body, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			accepted := decodeJSON(bytes.NewReader(body), r.body()) == nil
			long := strings.HasSuffix(path, "rollout-max-steps.json")
			if got := decodeBody(body, r.body()); got != (accepted && !long) {
				t.Errorf("%s: the reader decodes it: %v, decodeJSON accepts it: %v", path, got, accepted)
			}
		}
	}
}

// TestReadRequestAllocations: reading a warm evaluate body allocates
// its tier slice and one string per label outside the catalog, and
// nothing else: the body buffer is pooled and catalog labels interned.
func TestReadRequestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for file, want := range map[string]float64{
		"evaluate-base.json":      1, // the tier slice
		"evaluate-mixed-web.json": 2, // the tier slice and the name "mixed"
	} {
		body, err := os.ReadFile(filepath.Join("testdata", "requests", file))
		if err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(body)
		req := new(evaluateV2Request)
		got := testing.AllocsPerRun(100, func() {
			rd.Reset(body)
			*req = evaluateV2Request{}
			if err := readRequest(rd, req); err != nil {
				t.Fatal(err)
			}
		})
		if got > want {
			t.Errorf("%s: readRequest made %v allocs, want at most %v", file, got, want)
		}
	}
}

// TestAnswersMatchMapEncoding: each named answer appends exactly what
// encoding/json writes for the map it replaced, keys sorted, with the
// optional explain block present, absent or null, and fails where the
// map fails.
func TestAnswersMatchMapEncoding(t *testing.T) {
	study, err := redpatch.NewCaseStudy()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := study.EvaluateSpec(redpatch.ClassicSpec("<b&b>", 1, 2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	roll, err := study.EvaluateRollout(context.Background(), redpatch.ClassicSpec("", 1, 2, 2, 1), []float64{0, 0.5, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	explain := map[string]any{"traceId": "t1", "spans": []explainSpan{{Name: "engine.evaluate", DurationMs: 0.25, Status: "ok"}}}
	cases := []struct {
		name string
		got  jsonAppender
		want any
	}{
		{"evaluate", evaluateAnswer{report: rep, scenario: "default"},
			map[string]any{"report": rep, "scenario": "default"}},
		{"evaluate explained", evaluateAnswer{report: rep, scenario: "s", explain: explain},
			map[string]any{"report": rep, "scenario": "s", "explain": explain}},
		{"evaluate explained without a span", evaluateAnswer{report: rep, scenario: "s", explain: map[string]any(nil)},
			map[string]any{"report": rep, "scenario": "s", "explain": map[string]any(nil)}},
		{"sweep done", sweepDone{scenario: "x", total: 4, kept: 2, pareto: []redpatch.DesignReport{rep, rep}},
			map[string]any{"done": true, "scenario": "x", "total": 4, "kept": 2, "pareto": []redpatch.DesignReport{rep, rep}}},
		{"sweep done, none kept", sweepDone{total: 4},
			map[string]any{"done": true, "scenario": "", "total": 4, "kept": 0, "pareto": []redpatch.DesignReport(nil)}},
		{"sweep done, empty front", sweepDone{pareto: []redpatch.DesignReport{}},
			map[string]any{"done": true, "scenario": "", "total": 0, "kept": 0, "pareto": []redpatch.DesignReport{}}},
		{"rollout done", rolloutDone{scenario: "d", total: 9, frontier: []redpatch.RolloutReport{roll}},
			map[string]any{"done": true, "scenario": "d", "total": 9, "frontier": []redpatch.RolloutReport{roll}}},
		{"rollout done explained", rolloutDone{scenario: "d", frontier: []redpatch.RolloutReport{}, explain: explain},
			map[string]any{"done": true, "scenario": "d", "total": 0, "frontier": []redpatch.RolloutReport{}, "explain": explain}},
		{"progress", progressEvent{done: 3, total: 512, cacheHitRatio: 1.0 / 3, etaSeconds: 1e-7},
			map[string]any{"progress": true, "done": 3, "total": 512, "cacheHitRatio": 1.0 / 3, "etaSeconds": 1e-7}},
		{"progress with no ETA", progressEvent{etaSeconds: math.Inf(1)},
			map[string]any{"progress": true, "done": 0, "total": 0, "cacheHitRatio": 0.0, "etaSeconds": math.Inf(1)}},
		{"error trailer", streamErrorTrailer(errors.New(`design "<x>"` + "\x01 failed")),
			map[string]any{"error": `design "<x>"` + "\x01 failed", "reason": "internal"}},
		{"budget trailer", streamErrorTrailer(fmt.Errorf("sweep: %w", context.DeadlineExceeded)),
			map[string]any{"error": "sweep: context deadline exceeded", "reason": "budget_exhausted"}},
	}
	for _, c := range cases {
		want, werr := json.Marshal(c.want)
		got, err := c.got.AppendJSON([]byte("x"))
		if werr != nil {
			if err == nil || err.Error() != werr.Error() || string(got) != "x" {
				t.Errorf("%s: AppendJSON = %q, %v; encoding/json fails with %v", c.name, got, err, werr)
			}
			continue
		}
		if err != nil || string(got) != "x"+string(want) {
			t.Errorf("%s: AppendJSON =\n%s, %v\nwant x%s", c.name, got, err, want)
		}
	}
}
