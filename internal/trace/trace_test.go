package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

func TestDisabledPathIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, s := Start(ctx, "root")
	if s != nil {
		t.Fatalf("Start without tracer returned a span: %+v", s)
	}
	if ctx2 != ctx {
		t.Fatal("Start without tracer should return ctx unchanged")
	}
	// All methods must be nil-safe.
	s.SetAttr("k", "v")
	s.End()
	s.EndErr(errors.New("boom"))
	if got := s.TraceID(); got != "" {
		t.Fatalf("nil span TraceID = %q", got)
	}
	if FromContext(ctx2) != nil {
		t.Fatal("FromContext on plain ctx should be nil")
	}
}

func TestDisabledStartAllocs(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		_, s := Start(ctx, "noop")
		s.SetAttr("k", 1)
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled Start allocated %v times per run, want 0", allocs)
	}
}

func TestSpanTreeAndRing(t *testing.T) {
	tr := New(Options{})
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "request", Attr{Key: "route", Value: "/v2/evaluate"})
	cctx, child := Start(ctx, "engine.evaluate")
	_, grand := Start(cctx, "solver.availability")
	grand.SetAttr("solver", "factored")
	grand.End()
	child.End()
	root.End()

	if n := len(tr.Recent()); n != 1 {
		t.Fatalf("ring has %d traces, want 1", n)
	}
	got := tr.Recent()[0]
	if got.Root != "request" {
		t.Fatalf("trace root = %q, want request", got.Root)
	}
	if len(got.Spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(got.Spans))
	}
	// End order: deepest first.
	if got.Spans[0].Name != "solver.availability" || got.Spans[2].Name != "request" {
		t.Fatalf("unexpected span order: %q, %q, %q",
			got.Spans[0].Name, got.Spans[1].Name, got.Spans[2].Name)
	}
	// Parent/child links within one trace.
	byName := map[string]SpanData{}
	for _, s := range got.Spans {
		if s.TraceID != got.TraceID {
			t.Fatalf("span %q has trace ID %q, want %q", s.Name, s.TraceID, got.TraceID)
		}
		byName[s.Name] = s
	}
	if byName["engine.evaluate"].ParentID != byName["request"].SpanID {
		t.Fatal("engine span not parented to request span")
	}
	if byName["solver.availability"].ParentID != byName["engine.evaluate"].SpanID {
		t.Fatal("solver span not parented to engine span")
	}
	if byName["request"].ParentID != "" {
		t.Fatal("root span should have no parent")
	}
	if v, ok := byName["solver.availability"].Attr("solver"); !ok || v != "factored" {
		t.Fatalf("solver attr = %v, %v", v, ok)
	}
	if byName["request"].Duration <= 0 {
		t.Fatal("root duration should be positive")
	}
}

func TestRingBoundAndOrder(t *testing.T) {
	tr := New(Options{Capacity: 3})
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 5; i++ {
		_, s := Start(ctx, fmt.Sprintf("t%d", i))
		s.End()
	}
	got := tr.Recent()
	if len(got) != 3 {
		t.Fatalf("ring kept %d traces, want 3", len(got))
	}
	for i, want := range []string{"t4", "t3", "t2"} {
		if got[i].Root != want {
			t.Fatalf("Recent()[%d].Root = %q, want %q (newest first)", i, got[i].Root, want)
		}
	}
}

func TestMaxSpansDropCount(t *testing.T) {
	tr := New(Options{MaxSpans: 2})
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	for i := 0; i < 4; i++ {
		_, s := Start(ctx, "child")
		s.End()
	}
	root.End()
	got := tr.Recent()[0]
	// 2 children fill the bound, 2 more drop — but the root is always
	// retained past it: a dump without the request span is unreadable.
	if len(got.Spans) != 3 || got.Dropped != 2 {
		t.Fatalf("spans=%d dropped=%d, want 3 and 2", len(got.Spans), got.Dropped)
	}
	if last := got.Spans[len(got.Spans)-1]; last.Name != "root" {
		t.Fatalf("last retained span = %q, want the root", last.Name)
	}
}

func TestEndErrStatuses(t *testing.T) {
	tr := New(Options{})
	ctx := WithTracer(context.Background(), tr)

	cases := []struct {
		err  error
		want string
	}{
		{nil, StatusOK},
		{context.Canceled, StatusCancelled},
		{context.DeadlineExceeded, StatusCancelled},
		{fmt.Errorf("wrap: %w", context.Canceled), StatusCancelled},
		{errors.New("boom"), StatusError},
	}
	for _, c := range cases {
		_, s := Start(ctx, "op")
		s.EndErr(c.err)
	}
	recent := tr.Recent()
	if len(recent) != len(cases) {
		t.Fatalf("got %d traces, want %d", len(recent), len(cases))
	}
	// Recent is newest first; cases were recorded oldest first.
	for i, c := range cases {
		got := recent[len(cases)-1-i].Spans[0]
		if got.Status != c.want {
			t.Fatalf("case %d (err=%v): status %q, want %q", i, c.err, got.Status, c.want)
		}
		if c.want == StatusError {
			if v, ok := got.Attr("error"); !ok || v != "boom" {
				t.Fatalf("error attr = %v, %v", v, ok)
			}
		}
	}
}

func TestEndIsIdempotent(t *testing.T) {
	tr := New(Options{})
	ctx := WithTracer(context.Background(), tr)
	_, s := Start(ctx, "once")
	s.End()
	s.End()
	s.EndErr(errors.New("late"))
	if n := len(tr.Recent()); n != 1 {
		t.Fatalf("double End produced %d traces, want 1", n)
	}
	if len(tr.Recent()[0].Spans) != 1 {
		t.Fatal("double End recorded extra spans")
	}
}

func TestOnEndObserver(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	tr := New(Options{OnEnd: func(d SpanData) {
		mu.Lock()
		seen = append(seen, d.Name)
		mu.Unlock()
	}})
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	_, child := Start(ctx, "child")
	child.End()
	root.End()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] != "child" || seen[1] != "root" {
		t.Fatalf("OnEnd saw %v", seen)
	}
}

func TestCollectLiveTrace(t *testing.T) {
	tr := New(Options{})
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	_, child := Start(ctx, "child")
	child.End()
	// Root still open: Collect must surface the finished child.
	spans := tr.Collect(root.TraceID())
	if len(spans) != 1 || spans[0].Name != "child" {
		t.Fatalf("Collect(live) = %+v, want the child span", spans)
	}
	root.End()
	spans = tr.Collect(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("Collect(done) returned %d spans, want 2", len(spans))
	}
	if tr.Collect("ffffffffffffffffffffffffffffffff") != nil {
		t.Fatal("Collect(unknown) should be nil")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Options{})
	ctx := WithTracer(context.Background(), tr)
	_, s := Start(ctx, "client")
	tp := "00-" + s.TraceID() + "-" + s.SpanID() + "-01"
	sc, ok := ParseTraceparent(tp)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) failed", tp)
	}
	if sc.TraceID != s.TraceID() || sc.SpanID != s.SpanID() {
		t.Fatalf("round trip mismatch: %+v vs %s/%s", sc, s.TraceID(), s.SpanID())
	}
	s.End()
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace ID
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span ID
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // invalid version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", // uppercase
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	}
	for _, v := range bad {
		if _, ok := ParseTraceparent(v); ok {
			t.Fatalf("ParseTraceparent(%q) accepted, want reject", v)
		}
	}
	good := []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		" 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01 ",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-future",
	}
	for _, v := range good {
		if _, ok := ParseTraceparent(v); !ok {
			t.Fatalf("ParseTraceparent(%q) rejected, want accept", v)
		}
	}
}

func TestExtractJoinsRemoteTrace(t *testing.T) {
	tr := New(Options{})
	ctx := WithTracer(context.Background(), tr)
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	const remoteTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const remoteSpan = "00f067aa0ba902b7"
	r.Header.Set(TraceparentHeader, "00-"+remoteTrace+"-"+remoteSpan+"-01")

	ctx = Extract(ctx, r)
	_, s := Start(ctx, "server")
	if s.TraceID() != remoteTrace {
		t.Fatalf("span trace ID = %q, want remote %q", s.TraceID(), remoteTrace)
	}
	s.End()
	got := tr.Recent()[0]
	if got.Spans[0].ParentID != remoteSpan {
		t.Fatalf("root parent = %q, want remote span %q", got.Spans[0].ParentID, remoteSpan)
	}
}

func TestExtractIgnoresInvalid(t *testing.T) {
	tr := New(Options{})
	ctx := WithTracer(context.Background(), tr)
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	r.Header.Set(TraceparentHeader, "garbage")
	ctx = Extract(ctx, r)
	_, s := Start(ctx, "server")
	if !validHexT(t, s.TraceID(), 32) {
		t.Fatalf("fresh trace ID malformed: %q", s.TraceID())
	}
	s.End()
}

func validHexT(t *testing.T, s string, n int) bool {
	t.Helper()
	return validHex(s, n)
}

func TestLogHandlerAddsIDs(t *testing.T) {
	tr := New(Options{})
	ctx := WithTracer(context.Background(), tr)
	ctx, s := Start(ctx, "op")
	defer s.End()

	var buf bytes.Buffer
	logger := slog.New(NewLogHandler(slog.NewJSONHandler(&buf, nil)))
	logger.InfoContext(ctx, "hello", "k", "v")

	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log output not JSON: %v\n%s", err, buf.String())
	}
	if rec["trace_id"] != s.TraceID() || rec["span_id"] != s.SpanID() {
		t.Fatalf("log record missing IDs: %v", rec)
	}

	// Without a span: no IDs, no panic.
	buf.Reset()
	logger.InfoContext(context.Background(), "plain")
	var rec2 map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec2); err != nil {
		t.Fatal(err)
	}
	if _, ok := rec2["trace_id"]; ok {
		t.Fatal("plain record should carry no trace_id")
	}
}

func TestConcurrentTraces(t *testing.T) {
	tr := New(Options{Capacity: 64})
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, root := Start(ctx, "root")
			for j := 0; j < 8; j++ {
				_, s := Start(c, "child")
				s.SetAttr("j", j)
				s.End()
			}
			root.End()
		}()
	}
	wg.Wait()
	if n := len(tr.Recent()); n != 32 {
		t.Fatalf("ring has %d traces, want 32", n)
	}
	for _, tr := range tr.Recent() {
		if len(tr.Spans) != 9 {
			t.Fatalf("trace has %d spans, want 9", len(tr.Spans))
		}
	}
}

func TestIDsAreUniqueAndWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := randomTraceID()
		if !validHex(id, 32) {
			t.Fatalf("bad trace ID %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
		sid := randomSpanID()
		if !validHex(sid, 16) {
			t.Fatalf("bad span ID %q", sid)
		}
	}
}

func TestRootDurationCoversChildren(t *testing.T) {
	tr := New(Options{})
	ctx := WithTracer(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	_, child := Start(ctx, "child")
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	got := tr.Recent()[0]
	var rootD, childD time.Duration
	for _, s := range got.Spans {
		if s.Name == "root" {
			rootD = s.Duration
		} else {
			childD = s.Duration
		}
	}
	if rootD < childD {
		t.Fatalf("root duration %v < child %v", rootD, childD)
	}
}
