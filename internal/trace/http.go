package trace

import (
	"context"
	"net/http"
	"strings"
)

// TraceparentHeader is the W3C trace-context header name.
const TraceparentHeader = "traceparent"

// SpanContext is the propagated identity of a span: the W3C trace ID
// (32 lowercase hex) and span/parent ID (16 lowercase hex).
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether both IDs are well-formed and nonzero.
func (sc SpanContext) Valid() bool {
	return validHex(sc.TraceID, 32) && validHex(sc.SpanID, 16)
}

// ParseTraceparent parses a W3C traceparent header value. It accepts
// version 00 (and forward-compatibly any known-length future version
// except ff) and rejects all-zero IDs, per the spec.
func ParseTraceparent(v string) (SpanContext, bool) {
	v = strings.TrimSpace(v)
	// version "-" traceid "-" spanid "-" flags, possibly with future
	// fields appended after the flags for versions > 00.
	if len(v) < 55 {
		return SpanContext{}, false
	}
	if v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return SpanContext{}, false
	}
	version := v[:2]
	if !isHex(version) || version == "ff" {
		return SpanContext{}, false
	}
	if version == "00" && len(v) != 55 {
		return SpanContext{}, false
	}
	if len(v) > 55 && v[55] != '-' {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: v[3:35], SpanID: v[36:52]}
	if !sc.Valid() || !isHex(v[53:55]) {
		return SpanContext{}, false
	}
	return sc, true
}

// Extract reads an inbound traceparent off the request and, when one is
// present and valid, marks the context so the next Start joins the
// caller's trace. Invalid or absent headers leave ctx unchanged.
func Extract(ctx context.Context, r *http.Request) context.Context {
	sc, ok := ParseTraceparent(r.Header.Get(TraceparentHeader))
	if !ok {
		return ctx
	}
	return ContextWithRemote(ctx, sc)
}

func validHex(s string, n int) bool {
	if len(s) != n || !isHex(s) {
		return false
	}
	return strings.Trim(s, "0") != ""
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(s) > 0
}
