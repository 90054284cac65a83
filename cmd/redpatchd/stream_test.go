package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordingWriter is a ResponseWriter and Flusher that counts writes
// and flushes and logs them, in order, next to the encodes a
// loggedLine records. It is safe for the stream's linger timer.
type recordingWriter struct {
	mu      sync.Mutex
	header  http.Header
	body    bytes.Buffer
	log     []string
	writes  int
	flushed chan struct{} // one non-blocking send per Flush; buffered past any test's flush count so none is dropped
}

func newRecordingWriter() *recordingWriter {
	return &recordingWriter{header: http.Header{}, flushed: make(chan struct{}, 64)}
}

func (w *recordingWriter) Header() http.Header { return w.header }
func (w *recordingWriter) WriteHeader(int)     {}

func (w *recordingWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	w.log = append(w.log, "write")
	return w.body.Write(b)
}

func (w *recordingWriter) Flush() {
	w.mu.Lock()
	w.log = append(w.log, "flush")
	w.mu.Unlock()
	select {
	case w.flushed <- struct{}{}:
	default:
	}
}

func (w *recordingWriter) note(s string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.log = append(w.log, s)
}

// snapshot returns the log, the body and the write count so far.
func (w *recordingWriter) snapshot() ([]string, string, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.log...), w.body.String(), w.writes
}

// loggedLine encodes as {"n":N} and logs "encode N" on the writer when
// the stream encodes it.
type loggedLine struct {
	n int
	w *recordingWriter
}

func (l loggedLine) MarshalJSON() ([]byte, error) {
	l.w.note(fmt.Sprintf("encode %d", l.n))
	return []byte(fmt.Sprintf(`{"n":%d}`, l.n)), nil
}

// TestSweepStreamBatchesWrites: a 512-design sweep/stream reaches the
// ResponseWriter in a handful of batched writes, not one write per
// line, and the body is still 512 report lines and one done trailer.
func TestSweepStreamBatchesWrites(t *testing.T) {
	h := testServer(t).handler()
	w := newRecordingWriter()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v2/sweep/stream",
		strings.NewReader(`{"tiers":[{"role":"dns","min":1,"max":8},{"role":"web","min":1,"max":8},{"role":"app","min":1,"max":8},{"role":"db","min":1,"max":1}]}`)))
	_, body, writes := w.snapshot()
	if got := w.header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q: %s", got, body)
	}
	reports, done := 0, 0
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case line["done"] == true:
			done++
		case line["Name"] != nil:
			reports++
		}
	}
	if reports != 512 || done != 1 {
		t.Fatalf("stream has %d reports and %d done lines, want 512 and 1", reports, done)
	}
	// 513 lines of about 0.5 KB: ~8 size-bounded batches, plus the
	// first line, the trailer and whatever the linger timer wrote out.
	if writes > 64 {
		t.Fatalf("513 lines took %d writes, want at most 64", writes)
	}
	t.Logf("513 lines in %d writes", writes)
}

// TestStreamFlushesFirstLineAtOnce: the first line is written and
// flushed before the second is encoded; the second waits for a batch.
func TestStreamFlushesFirstLineAtOnce(t *testing.T) {
	w := newRecordingWriter()
	st := newNDJSONStream(w)
	if err := st.line(loggedLine{1, w}); err != nil {
		t.Fatal(err)
	}
	if err := st.line(loggedLine{2, w}); err != nil {
		t.Fatal(err)
	}
	log, _, _ := w.snapshot()
	if want := []string{"encode 1", "write", "flush", "encode 2"}; strings.Join(log[:min(len(log), 4)], ",") != strings.Join(want, ",") {
		t.Fatalf("log = %v, want it to start %v", log, want)
	}
	st.close()
	if _, body, _ := w.snapshot(); body != "{\"n\":1}\n{\"n\":2}\n" {
		t.Fatalf("body after close = %q", body)
	}
}

// TestStreamLingerFlushesStalledLine: a line encoded before the
// producer stalls reaches the client within the linger bound, with no
// further line or event to push it out.
func TestStreamLingerFlushesStalledLine(t *testing.T) {
	w := newRecordingWriter()
	st := newNDJSONStream(w)
	defer st.close()
	if err := st.line(loggedLine{1, w}); err != nil {
		t.Fatal(err)
	}
	<-w.flushed // the first line's flush
	start := time.Now()
	if err := st.line(loggedLine{2, w}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.flushed:
	case <-time.After(time.Second):
		t.Fatal("stalled line never flushed")
	}
	// The timer fires after streamLinger; the slack covers scheduling
	// on a loaded machine.
	if took := time.Since(start); took < streamLinger || took > streamLinger+250*time.Millisecond {
		t.Fatalf("stalled line flushed after %v, want about %v", took, streamLinger)
	}
	if _, body, _ := w.snapshot(); !strings.HasSuffix(body, "{\"n\":2}\n") {
		t.Fatalf("body = %q, want the stalled line written", body)
	}
}

// TestStreamEventsFlushPendingLines: progress events, the done trailer
// and the error trailer are written and flushed when they are encoded,
// together with the result lines waiting before them.
func TestStreamEventsFlushPendingLines(t *testing.T) {
	w := newRecordingWriter()
	st := newNDJSONStream(w)
	defer st.close()
	mustLine := func(n int) {
		t.Helper()
		if err := st.line(loggedLine{n, w}); err != nil {
			t.Fatal(err)
		}
	}
	flushedWith := func(what string, lines ...string) {
		t.Helper()
		log, body, _ := w.snapshot()
		if log[len(log)-1] != "flush" {
			t.Fatalf("%s not flushed: log %v", what, log)
		}
		if !strings.HasSuffix(body, strings.Join(lines, "\n")+"\n") {
			t.Fatalf("%s: body %q does not end with %q", what, body, lines)
		}
	}
	mustLine(1)
	mustLine(2)
	st.progress(0, func() (uint64, uint64) { return 0, 0 })(1, 4)
	log, body, _ := w.snapshot()
	if !strings.Contains(body, `{"n":2}`+"\n"+`{"cacheHitRatio":0,"done":1,"etaSeconds":`) || log[len(log)-1] != "flush" {
		t.Fatalf("progress event did not write the pending line and flush: body %q, log %v", body, log)
	}
	mustLine(3)
	if err := st.event(map[string]any{"done": true}); err != nil {
		t.Fatal(err)
	}
	flushedWith("done trailer", `{"n":3}`, `{"done":true}`)
	mustLine(4)
	st.fail(errors.New("boom"))
	flushedWith("error trailer", `{"n":4}`, `{"error":"boom","reason":"internal"}`)
}

// TestStreamCloseStopsTimer: close writes out pending lines, and
// neither the linger timer nor a late line writes anything after it.
func TestStreamCloseStopsTimer(t *testing.T) {
	w := newRecordingWriter()
	st := newNDJSONStream(w)
	for n := 1; n <= 2; n++ {
		if err := st.line(loggedLine{n, w}); err != nil {
			t.Fatal(err)
		}
	}
	st.close()
	_, body, writes := w.snapshot()
	if body != "{\"n\":1}\n{\"n\":2}\n" {
		t.Fatalf("body after close = %q", body)
	}
	if err := st.line(loggedLine{3, w}); !errors.Is(err, errStreamClosed) {
		t.Fatalf("line after close = %v, want errStreamClosed", err)
	}
	time.Sleep(2 * streamLinger)
	if _, _, after := w.snapshot(); after != writes {
		t.Fatalf("%d writes after close", after-writes)
	}
}
