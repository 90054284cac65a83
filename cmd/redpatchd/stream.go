package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"
)

// The batching bounds of ndjsonStream: after the first line, result
// lines collect in the stream's buffer until it holds streamBatchBytes
// or its oldest line has waited streamLinger, whichever comes first.
const (
	streamBatchBytes = 32 << 10
	streamLinger     = 25 * time.Millisecond
)

// streamBufs recycles stream buffers, which grow to a batch each; close
// drops one that a huge line grew past maxPooledBuf.
var streamBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 4 * streamBatchBytes

// errStreamClosed is returned for a line encoded after close.
var errStreamClosed = errors.New("redpatchd: NDJSON stream closed")

// ndjsonStream is the one NDJSON response writer every streaming
// endpoint shares: it sets the headers and encodes each line as one
// compact JSON object into a per-stream buffer. The first line is
// written and flushed at once, so a client sees the stream start
// without waiting for a batch. Later result lines (line) are written in
// batches of about streamBatchBytes, and a timer writes out any line
// that has waited streamLinger, so none lingers longer even when the
// sweep stalls. Progress lines, headers and trailers (event) always
// write and flush, taking the pending batch with them. Errors after the
// first byte cannot change the status code, so a stream ends in exactly
// one explicit done line or one {"error":...,"reason":...} trailer
// (fail). The handler must defer close, which stops the timer: no byte
// reaches the ResponseWriter after close returns.
type ndjsonStream struct {
	w       http.ResponseWriter
	flusher http.Flusher

	mu      sync.Mutex
	buf     *bytes.Buffer // from streamBufs, returned by close
	enc     *json.Encoder // encodes lines that cannot append themselves into buf
	started bool          // the first line has been written
	armed   bool          // timer will write out the pending lines
	closed  bool
	timer   *time.Timer
	err     error // the first write error; every later line returns it
}

func newNDJSONStream(w http.ResponseWriter) *ndjsonStream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not batch the stream
	flusher, _ := w.(http.Flusher)
	buf := streamBufs.Get().(*bytes.Buffer)
	return &ndjsonStream{w: w, flusher: flusher, buf: buf}
}

// line encodes v as one NDJSON result line. The first line is written
// and flushed at once; later ones wait for a full batch or the linger
// timer. A write error from an earlier batch is returned, so a sweep
// stops once its client is gone.
func (st *ndjsonStream) line(v any) error {
	return st.encode(v, false)
}

// event encodes v as one NDJSON line and writes and flushes it together
// with every pending line: progress events, headers and trailers.
func (st *ndjsonStream) event(v any) error {
	return st.encode(v, true)
}

func (st *ndjsonStream) encode(v any, now bool) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return errStreamClosed
	}
	if st.err != nil {
		return st.err
	}
	if err := st.append(v); err != nil {
		return err
	}
	switch {
	case now || !st.started || st.buf.Len() >= streamBatchBytes:
		st.started = true
		st.writeOut()
	case !st.armed:
		st.armed = true
		if st.timer == nil {
			st.timer = time.AfterFunc(streamLinger, st.linger)
		} else {
			st.timer.Reset(streamLinger)
		}
	}
	return st.err
}

// append adds v's encoding and a newline to the buffer, or nothing when
// v fails to encode. A jsonAppender appends itself; any other value goes
// through encoding/json. st.mu is held.
func (st *ndjsonStream) append(v any) error {
	a, ok := v.(jsonAppender)
	if !ok {
		if st.enc == nil {
			st.enc = json.NewEncoder(st.buf)
		}
		return st.enc.Encode(v)
	}
	st.buf.Grow(1024)
	b, err := a.AppendJSON(st.buf.AvailableBuffer())
	if err != nil {
		return err
	}
	_, _ = st.buf.Write(append(b, '\n'))
	return nil
}

// linger is the timer's callback: it writes out the lines that have
// waited streamLinger, unless the stream closed first.
func (st *ndjsonStream) linger() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.armed = false
	if !st.closed {
		st.writeOut()
	}
}

// writeOut writes the buffer to the client and flushes it. st.mu is
// held.
func (st *ndjsonStream) writeOut() {
	if st.armed {
		st.timer.Stop()
		st.armed = false
	}
	if st.buf.Len() == 0 || st.err != nil {
		return
	}
	_, st.err = st.w.Write(st.buf.Bytes())
	st.buf.Reset()
	if st.err == nil && st.flusher != nil {
		st.flusher.Flush()
	}
}

// close writes out any pending lines, stops the timer and recycles the
// buffer. It is idempotent; handlers defer it so a panicking handler
// leaves no timer behind to write into a finished response.
func (st *ndjsonStream) close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.writeOut()
	st.closed = true
	if st.buf.Cap() <= maxPooledBuf {
		st.buf.Reset()
		streamBufs.Put(st.buf)
	}
	st.buf, st.enc = nil, nil
}

// fail ends the stream with the error trailer classifying err.
func (st *ndjsonStream) fail(err error) { _ = st.event(streamErrorTrailer(err)) }

// progress returns a sweep progress callback writing at most one
// {"progress":true,...} event per every: done/total counts, an ETA, and
// the cache-hit ratio of this sweep alone — counts reports the memo's
// lifetime hits and solves, and the ratio is taken over their delta
// since progress was called.
func (st *ndjsonStream) progress(every time.Duration, counts func() (hits, solves uint64)) func(done, total int) {
	hits0, solves0 := counts()
	start := time.Now()
	last := start
	return func(done, total int) {
		if done >= total || time.Since(last) < every {
			return
		}
		last = time.Now()
		hits, solves := counts()
		hits -= hits0
		ratio := 0.0
		if looked := hits + solves - solves0; looked > 0 {
			ratio = float64(hits) / float64(looked)
		}
		eta := time.Since(start).Seconds() / float64(done) * float64(total-done)
		_ = st.event(progressEvent{
			done:          done,
			total:         total,
			cacheHitRatio: ratio,
			etaSeconds:    eta,
		})
	}
}
