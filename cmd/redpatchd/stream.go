package main

import (
	"encoding/json"
	"net/http"
	"time"
)

// ndjsonStream is the one NDJSON response writer every streaming
// endpoint shares: it sets the headers, owns the encoder and flusher,
// and writes each line as one compact JSON object, flushed as soon as
// it is written. Errors after the first byte cannot change the status
// code, so a stream ends in exactly one explicit done line or one
// {"error":...,"reason":...} trailer (fail).
type ndjsonStream struct {
	enc     *json.Encoder
	flusher http.Flusher
}

func newNDJSONStream(w http.ResponseWriter) *ndjsonStream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not batch the stream
	flusher, _ := w.(http.Flusher)
	return &ndjsonStream{enc: json.NewEncoder(w), flusher: flusher}
}

// line writes v as one NDJSON line and flushes it.
func (st *ndjsonStream) line(v any) error {
	if err := st.enc.Encode(v); err != nil {
		return err
	}
	if st.flusher != nil {
		st.flusher.Flush()
	}
	return nil
}

// fail ends the stream with the error trailer classifying err.
func (st *ndjsonStream) fail(err error) { _ = st.line(streamErrorTrailer(err)) }

// progress returns a sweep progress callback writing at most one
// {"progress":true,...} line per every: done/total counts, an ETA, and
// the cache-hit ratio of this sweep alone — counts reports the memo's
// lifetime hits and solves, and the ratio is taken over their delta
// since progress was called. The callback runs on the sweep's collector
// goroutine, the same one that writes result lines, so the two share
// the encoder without locking.
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
		_ = st.line(map[string]any{
			"progress":      true,
			"done":          done,
			"total":         total,
			"cacheHitRatio": ratio,
			"etaSeconds":    eta,
		})
	}
}
