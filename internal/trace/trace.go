// Package trace is a dependency-free span tracer for the evaluation
// pipeline: redpatchd starts a root span per request, the engine and the
// solvers hang child spans off it through context.Context, and a bounded
// in-memory ring keeps the most recent completed traces for GET
// /debug/traces and the ?explain=1 provenance block. Nothing here
// imports anything beyond the standard library, and nothing is exported
// off-process — the ring is the whole storage story.
//
// Spans measure with the monotonic clock (time.Since on the Start
// reading), carry free-form attributes, and link parent to child by span
// ID within one trace ID. W3C trace context interop lives in http.go:
// inbound `traceparent` headers join a request onto the caller's trace,
// and Inject propagates the current span outward.
//
// The disabled path is free: with no Tracer in the context, Start
// returns the context unchanged and a nil *Span, and every method on a
// nil *Span is a no-op — callers never branch on "is tracing on", and
// the hot solver loops pay zero allocations when it is off.
//
// A live Span is owned by the call path that started it: SetAttr and
// End are unsynchronized and must not race on one span. Distinct spans
// of one trace are independent — they may start and end on any
// goroutines concurrently (the sweep workers do exactly that), and the
// per-trace record they share is internally synchronized.
package trace

import (
	"context"
	"errors"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for Options; see New. The bounds are deliberately modest:
// retained spans are pointer-dense (IDs, names, attribute values), so
// every live garbage-collection cycle rescans the whole ring — the
// dominant cost of leaving tracing always-on. 32 requests of up to 65
// retained spans is ample for a debug dump while keeping that rescan
// in the tens of kilobytes.
const (
	DefaultCapacity = 32
	DefaultMaxSpans = 64
)

// Attr is one span attribute. Values should be JSON-encodable — they
// are rendered verbatim into /debug/traces dumps and explain blocks.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span statuses. A span ends StatusOK unless EndErr saw an error;
// context cancellation gets its own status so cancelled requests are
// distinguishable from genuine failures in the ring.
const (
	StatusOK        = "ok"
	StatusError     = "error"
	StatusCancelled = "cancelled"
)

// SpanData is one finished span as it appears in dumps: immutable,
// JSON-shaped, detached from the live Span that produced it.
type SpanData struct {
	TraceID  string        `json:"traceId"`
	SpanID   string        `json:"spanId"`
	ParentID string        `json:"parentId,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	Status   string        `json:"status"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute and whether it is set.
func (d SpanData) Attr(key string) (any, bool) {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// Trace is one completed request: every finished span sharing a trace
// ID, in end order (children end before their parents, so the root is
// last). Dropped counts spans discarded past the per-trace bound.
type Trace struct {
	TraceID string     `json:"traceId"`
	Root    string     `json:"root"`
	Start   time.Time  `json:"start"`
	Spans   []SpanData `json:"spans"`
	Dropped int        `json:"dropped,omitempty"`
}

// Options configures a Tracer. Zero values select the defaults.
type Options struct {
	// Capacity bounds the ring of recent completed traces (default 32).
	Capacity int
	// MaxSpans bounds the spans recorded per trace (default 64); spans
	// past the bound still run (and reach OnEnd) but are not retained —
	// except the root span, which always is, so an overflowed dump still
	// shows what the trace was.
	MaxSpans int
	// OnEnd, when set, observes every finished span — the hook redpatchd
	// uses to derive latency histograms from span durations. It runs on
	// the goroutine calling End and must be safe for concurrent use.
	OnEnd func(SpanData)
}

// Tracer owns the recent-trace ring and mints spans. It is safe for
// concurrent use.
type Tracer struct {
	capacity int
	maxSpans int
	onEnd    func(SpanData)

	mu     sync.Mutex
	active map[string]*traceRec // live traces by trace ID
	ring   []*Trace             // completed traces, oldest first at head
	head   int                  // next ring slot to overwrite
	filled bool
}

// traceRec accumulates one live trace's finished spans until its last
// open span ends and moves it into the ring. Child spans reach their
// record through the parent span's pointer — only roots touch the
// tracer's map — so the per-span cost on the hot solver path is one
// atomic add and one short critical section on the record's own lock.
type traceRec struct {
	traceID string
	start   time.Time
	open    atomic.Int64 // live spans keeping the record active

	mu      sync.Mutex // guards spans and dropped
	spans   []SpanData
	dropped int
}

// New builds a tracer.
func New(opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	if opts.MaxSpans <= 0 {
		opts.MaxSpans = DefaultMaxSpans
	}
	return &Tracer{
		capacity: opts.Capacity,
		maxSpans: opts.MaxSpans,
		onEnd:    opts.OnEnd,
		active:   make(map[string]*traceRec),
		ring:     make([]*Trace, 0, opts.Capacity),
	}
}

// Span is one live span. The zero of usefulness is nil: every method
// no-ops on a nil receiver, so disabled tracing costs one pointer test.
// See the package comment for the single-owner rule.
type Span struct {
	tracer  *Tracer
	rec     *traceRec
	traceID string
	spanID  string
	parent  string
	name    string
	start   time.Time // monotonic-bearing
	attrs   []Attr
	ended   bool
}

// attrsPrealloc sizes attribute buffers to the deepest count the
// pipeline produces (an engine evaluate span accumulates seven), so
// SetAttr almost never regrows.
const attrsPrealloc = 8

// copyAttrs moves Start's variadic attributes into a heap buffer with
// room to grow. Copying — rather than retaining the argument slice —
// keeps the call-site array stack-allocatable, so a traced call with
// constant attributes costs the caller nothing when tracing is off.
// The buffer is deliberately separate from the Span: finished-span
// views of it go into the ring, and an attribute slab pins two hundred
// bytes less than a whole Span would.
func copyAttrs(attrs []Attr) []Attr {
	if len(attrs) == 0 {
		return nil
	}
	buf := make([]Attr, len(attrs), max(len(attrs), attrsPrealloc))
	copy(buf, attrs)
	return buf
}

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	remoteKey
)

// WithTracer returns a context carrying the tracer; Start calls under
// it record spans.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// FromContext returns the current span, or nil when tracing is off or
// no span has been started.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// ContextWithRemote marks the context with a remote parent (an inbound
// W3C traceparent): the next Start joins that trace as a child of the
// remote span instead of minting a fresh trace ID.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey, sc)
}

// Start begins a span named name: a child of the context's current span
// when one exists, otherwise a new root (joining a remote parent from
// ContextWithRemote when present). The returned context carries the new
// span for nested Starts. Without a tracer in the context, Start
// returns ctx unchanged and a nil span — the zero-cost disabled path.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if parent := FromContext(ctx); parent != nil {
		s := &Span{
			tracer:  parent.tracer,
			rec:     parent.rec,
			traceID: parent.traceID,
			spanID:  randomSpanID(),
			parent:  parent.spanID,
			name:    name,
			start:   time.Now(),
			attrs:   copyAttrs(attrs),
		}
		s.rec.open.Add(1)
		return context.WithValue(ctx, spanKey, s), s
	}
	t, _ := ctx.Value(tracerKey).(*Tracer)
	if t == nil {
		return ctx, nil
	}
	traceID, parentID := "", ""
	if sc, ok := ctx.Value(remoteKey).(SpanContext); ok {
		traceID, parentID = sc.TraceID, sc.SpanID
	} else {
		traceID = randomTraceID()
	}
	s := t.startRoot(traceID, parentID, name, attrs)
	return context.WithValue(ctx, spanKey, s), s
}

// startRoot mints a root span and opens (or, for a shared remote trace
// ID, joins) its trace record.
func (t *Tracer) startRoot(traceID, parentID, name string, attrs []Attr) *Span {
	s := &Span{
		tracer:  t,
		traceID: traceID,
		spanID:  randomSpanID(),
		parent:  parentID,
		name:    name,
		start:   time.Now(),
		attrs:   copyAttrs(attrs),
	}
	t.mu.Lock()
	rec, ok := t.active[traceID]
	if !ok {
		rec = &traceRec{traceID: traceID, start: s.start}
		rec.spans = make([]SpanData, 0, 8)
		t.active[traceID] = rec
	}
	rec.open.Add(1)
	t.mu.Unlock()
	s.rec = rec
	return s
}

// SetAttr records (or appends) one attribute on a live span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil || s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = make([]Attr, 0, attrsPrealloc)
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// TraceID returns the span's trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SpanID returns the span's ID ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.spanID
}

// End finishes the span with StatusOK. Idempotent; nil-safe.
func (s *Span) End() { s.end(StatusOK) }

// EndErr finishes the span with a status derived from err: nil ends OK,
// context cancellation (or deadline) ends StatusCancelled, anything
// else ends StatusError with the message attached as an "error" attr.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	switch {
	case err == nil:
		s.end(StatusOK)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.end(StatusCancelled)
	default:
		s.SetAttr("error", err.Error())
		s.end(StatusError)
	}
}

func (s *Span) end(status string) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	attrs := s.attrs
	if len(attrs) == 0 {
		attrs = nil // don't pin the Span via an empty view of its buffer
	}
	d := SpanData{
		TraceID:  s.traceID,
		SpanID:   s.spanID,
		ParentID: s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: time.Since(s.start),
		Status:   status,
		Attrs:    attrs,
	}
	t := s.tracer
	if t.onEnd != nil {
		t.onEnd(d)
	}
	rec := s.rec
	rec.mu.Lock()
	kept := len(rec.spans) < t.maxSpans
	if kept {
		rec.spans = append(rec.spans, d)
	} else {
		rec.dropped++
	}
	rec.mu.Unlock()
	// Record before decrement: whichever span observes the count hit
	// zero is then guaranteed (by the record lock it re-takes in
	// complete) to see every other span already appended.
	if rec.open.Add(-1) == 0 {
		t.complete(rec, d, kept)
	}
}

// complete moves a finished trace record into the ring. The span that
// closed the trace is by construction the outermost one the record saw
// — the request's root — and a dump without it is unreadable, so it is
// re-admitted even when the trace overflowed maxSpans.
func (t *Tracer) complete(rec *traceRec, last SpanData, kept bool) {
	t.mu.Lock()
	if t.active[rec.traceID] != rec {
		// Already emitted — a stray span ended after its trace closed.
		t.mu.Unlock()
		return
	}
	if rec.open.Load() != 0 {
		// A second root joined the shared (remote) trace ID between the
		// zero observation and now; its end completes the record instead.
		t.mu.Unlock()
		return
	}
	delete(t.active, rec.traceID)
	t.mu.Unlock()

	rec.mu.Lock()
	if !kept {
		rec.spans = append(rec.spans, last)
		rec.dropped--
	}
	done := &Trace{
		TraceID: rec.traceID,
		Root:    last.Name,
		Start:   rec.start,
		Spans:   rec.spans,
		Dropped: rec.dropped,
	}
	rec.mu.Unlock()

	t.mu.Lock()
	if len(t.ring) < t.capacity {
		t.ring = append(t.ring, done)
	} else {
		t.ring[t.head] = done
		t.head = (t.head + 1) % t.capacity
		t.filled = true
	}
	t.mu.Unlock()
}

// Recent returns the completed traces in the ring, newest first.
func (t *Tracer) Recent() []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Trace, 0, len(t.ring))
	// Newest is just before head once the ring has wrapped; before that,
	// the slice is in append (oldest-first) order.
	n := len(t.ring)
	for i := 0; i < n; i++ {
		idx := (t.head - 1 - i + 2*n) % n
		if !t.filled {
			idx = n - 1 - i
		}
		out = append(out, *t.ring[idx])
	}
	return out
}

// Collect returns the finished spans of a trace — live (root still
// open) or completed — in end order. The explain surface reads a
// request's own child spans this way before the root ends.
func (t *Tracer) Collect(traceID string) []SpanData {
	t.mu.Lock()
	rec := t.active[traceID]
	t.mu.Unlock()
	if rec != nil {
		rec.mu.Lock()
		out := append([]SpanData(nil), rec.spans...)
		rec.mu.Unlock()
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range t.ring {
		if tr.TraceID == traceID {
			return append([]SpanData(nil), tr.Spans...)
		}
	}
	return nil
}

// randomTraceID mints a 16-byte lowercase-hex W3C trace ID; the
// all-zero value is invalid per spec, so zero draws are redrawn.
func randomTraceID() string {
	var hi, lo uint64
	for hi == 0 && lo == 0 {
		hi, lo = rand.Uint64(), rand.Uint64()
	}
	var b [32]byte
	putHex(b[:16], hi)
	putHex(b[16:], lo)
	return string(b[:])
}

// randomSpanID mints an 8-byte lowercase-hex span ID (nonzero).
func randomSpanID() string {
	var v uint64
	for v == 0 {
		v = rand.Uint64()
	}
	var b [16]byte
	putHex(b[:], v)
	return string(b[:])
}

const hexDigits = "0123456789abcdef"

// putHex renders v as big-endian lowercase hex into dst (len 16).
func putHex(dst []byte, v uint64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = hexDigits[v&0xf]
		v >>= 4
	}
}
