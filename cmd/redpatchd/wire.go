package main

// The typed wire of the routes that carry design reports: evaluate,
// sweep/stream and rollout/sweep. Their request bodies are read by a
// one-pass reader and their answers are appended into pooled buffers by
// named response types, without reflection. Neither changes a byte on
// the wire: every answer is what encoding/json wrote for the map it
// replaces (keys in sorted order), and every body outside the reader's
// grammar goes to decodeJSON, which stays the one place that rejects a
// body and words the error.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"

	"redpatch"
	"redpatch/internal/wire"
)

// jsonAppender is a value that appends its own JSON encoding to b: the
// bytes encoding/json writes for it. On error it returns b unchanged.
type jsonAppender interface {
	AppendJSON(b []byte) ([]byte, error)
}

// maxBody caps every request body, as decodeJSON's MaxBytesReader does.
const maxBody = 1 << 20

// bufs recycles the byte slices request bodies are read into and
// evaluate answers are appended into; putBuf drops one that grew past
// maxPooledBuf.
var bufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

func putBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBuf {
		*bp = b[:0]
		bufs.Put(bp)
	}
}

// writeAppended writes v's encoding and a newline, the bytes writeJSON
// writes for the same value, from a pooled buffer. Like writeJSON, a
// value that fails to encode leaves the body empty.
func writeAppended(w http.ResponseWriter, status int, v jsonAppender) {
	bp := bufs.Get().(*[]byte)
	b, err := v.AppendJSON(*bp)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err == nil {
		b = append(b, '\n')
		_, _ = w.Write(b)
	}
	putBuf(bp, b)
}

// appendArray appends vs as a JSON array, or null for a nil slice.
func appendArray[T jsonAppender](b []byte, vs []T) ([]byte, error) {
	if vs == nil {
		return append(b, "null"...), nil
	}
	start := len(b)
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = v.AppendJSON(b); err != nil {
			return b[:start], err
		}
	}
	return append(b, ']'), nil
}

// appendExplain appends `"explain":` and the provenance block, encoded
// by encoding/json as the map holding it was, and a comma.
func appendExplain(b []byte, explain any) ([]byte, error) {
	x, err := json.Marshal(explain)
	if err != nil {
		return b, err
	}
	return append(append(append(b, `"explain":`...), x...), ','), nil
}

// evaluateAnswer is the v2 evaluate answer:
// {"explain":...,"report":...,"scenario":...}. explain is present only
// when the request asked for it (a nil interface leaves it out; a nil
// block encodes as null).
type evaluateAnswer struct {
	explain  any
	report   redpatch.DesignReport
	scenario string
}

func (e evaluateAnswer) AppendJSON(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, '{')
	var err error
	if e.explain != nil {
		if b, err = appendExplain(b, e.explain); err != nil {
			return b[:start], err
		}
	}
	if b, err = e.report.AppendJSON(append(b, `"report":`...)); err != nil {
		return b[:start], err
	}
	b = wire.AppendString(append(b, `,"scenario":`...), e.scenario)
	return append(b, '}'), nil
}

// sweepDone is the sweep/stream trailer:
// {"done":true,"kept":...,"pareto":[...],"scenario":...,"total":...}.
type sweepDone struct {
	kept, total int
	pareto      []redpatch.DesignReport
	scenario    string
}

func (d sweepDone) AppendJSON(b []byte) ([]byte, error) {
	start := len(b)
	b = strconv.AppendInt(append(b, `{"done":true,"kept":`...), int64(d.kept), 10)
	b, err := appendArray(append(b, `,"pareto":`...), d.pareto)
	if err != nil {
		return b[:start], err
	}
	b = wire.AppendString(append(b, `,"scenario":`...), d.scenario)
	b = strconv.AppendInt(append(b, `,"total":`...), int64(d.total), 10)
	return append(b, '}'), nil
}

// rolloutDone is the rollout/sweep trailer: {"done":true,
// "explain":...,"frontier":[...],"scenario":...,"total":...}, explain
// present as in evaluateAnswer.
type rolloutDone struct {
	explain  any
	frontier []redpatch.RolloutReport
	scenario string
	total    int
}

func (d rolloutDone) AppendJSON(b []byte) ([]byte, error) {
	start := len(b)
	b = append(b, `{"done":true,`...)
	var err error
	if d.explain != nil {
		if b, err = appendExplain(b, d.explain); err != nil {
			return b[:start], err
		}
	}
	if b, err = appendArray(append(b, `"frontier":`...), d.frontier); err != nil {
		return b[:start], err
	}
	b = wire.AppendString(append(b, `,"scenario":`...), d.scenario)
	b = strconv.AppendInt(append(b, `,"total":`...), int64(d.total), 10)
	return append(b, '}'), nil
}

// progressEvent is a stream's progress line: {"cacheHitRatio":...,
// "done":...,"etaSeconds":...,"progress":true,"total":...}.
type progressEvent struct {
	cacheHitRatio, etaSeconds float64
	done, total               int
}

func (p progressEvent) AppendJSON(b []byte) ([]byte, error) {
	if err := wire.CheckFinite(p.cacheHitRatio, p.etaSeconds); err != nil {
		return b, err
	}
	b = wire.AppendFloat(append(b, `{"cacheHitRatio":`...), p.cacheHitRatio)
	b = strconv.AppendInt(append(b, `,"done":`...), int64(p.done), 10)
	b = wire.AppendFloat(append(b, `,"etaSeconds":`...), p.etaSeconds)
	b = strconv.AppendInt(append(b, `,"progress":true,"total":`...), int64(p.total), 10)
	return append(b, '}'), nil
}

// streamError is the trailer a stream ends in when it fails after its
// first byte: {"error":...,"reason":...}.
type streamError struct {
	err, reason string
}

func (e streamError) AppendJSON(b []byte) ([]byte, error) {
	b = wire.AppendString(append(b, `{"error":`...), e.err)
	b = wire.AppendString(append(b, `,"reason":`...), e.reason)
	return append(b, '}'), nil
}

// errBodyTooLarge marks a body longer than maxBody.
var errBodyTooLarge = errors.New("request body too large")

// readRequest decodes an evaluate, sweep/stream or rollout/sweep body
// from body into v, which is one of *evaluateV2Request,
// *sweepV2Request and *rolloutSweepRequest, pointing at a zero value.
// The body is read once into a pooled buffer under maxBody. A body in
// the reader's grammar (see bodyReader) is decoded in one pass; any
// other, and any read error or oversized body, goes to decodeJSON over
// the bytes already read and the rest of the body, so its verdict and
// its error are decodeJSON's own.
func readRequest(body io.Reader, v any) error {
	bp := bufs.Get().(*[]byte)
	b, rerr := readBody(body, *bp)
	defer putBuf(bp, b)
	if rerr == nil && decodeBody(b, v) {
		return nil
	}
	rest := body
	if rerr != nil && rerr != errBodyTooLarge {
		rest = errReader{rerr}
	}
	return decodeJSON(io.MultiReader(bytes.NewReader(b), rest), v)
}

// readBody appends body's bytes to b until EOF or until it holds more
// than maxBody bytes (errBodyTooLarge).
func readBody(body io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) > maxBody {
			return b, errBodyTooLarge
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):min(cap(b), maxBody+1)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// errReader replays a read error to decodeJSON.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodeBody decodes b into v when b is in the reader's grammar, and
// reports whether it did; v is left untouched otherwise.
func decodeBody(b []byte, v any) bool {
	d := bodyReader{b: b}
	switch v := v.(type) {
	case *evaluateV2Request:
		var req evaluateV2Request
		d.object(func(k []byte) bool {
			switch string(k) {
			case "scenario":
				req.Scenario = d.str()
			case "spec":
				req.Spec = d.spec()
			default:
				return false
			}
			return true
		})
		if d.end() {
			*v = req
			return true
		}
	case *sweepV2Request:
		var req sweepV2Request
		d.object(func(k []byte) bool {
			switch string(k) {
			case "scenario":
				req.Scenario = d.str()
			case "tiers":
				req.Tiers = d.tierSweeps()
			case "scatter":
				req.Scatter = d.scatter()
			case "multi":
				req.Multi = d.multi()
			default:
				return false
			}
			return true
		})
		if d.end() {
			*v = req
			return true
		}
	case *rolloutSweepRequest:
		var req rolloutSweepRequest
		d.object(func(k []byte) bool {
			switch string(k) {
			case "scenario":
				req.Scenario = d.str()
			case "spec":
				req.Spec = d.spec()
			case "schedule":
				req.Schedule = d.schedule()
			default:
				return false
			}
			return true
		})
		if d.end() {
			*v = req
			return true
		}
	}
	return false
}

// bodyReader decodes, in one pass, the request grammar whose Go values
// encoding/json would decode identically:
//   - objects whose keys are spelled exactly as the wire tags, each at
//     most once;
//   - strings of printable ASCII with no escapes; the catalog labels and
//     rollout strategies are interned, not allocated;
//   - integers with no fraction, exponent or leading zero and at most 18
//     digits, so they cannot overflow;
//   - floats in the JSON number grammar, converted by strconv.ParseFloat
//     as encoding/json converts them;
//   - arrays, empty ones decoding to empty, non-nil slices.
//
// null, true, false, escapes, non-ASCII, case-folded or unknown keys and
// anything else set bad, and the body goes to decodeJSON instead.
type bodyReader struct {
	b   []byte
	pos int
	bad bool
}

// end reports whether the whole body was one value in the grammar,
// followed by nothing but whitespace.
func (d *bodyReader) end() bool {
	d.ws()
	return !d.bad && d.pos == len(d.b)
}

func (d *bodyReader) ws() {
	for d.pos < len(d.b) {
		switch d.b[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// eat consumes c, after whitespace, if it comes next.
func (d *bodyReader) eat(c byte) bool {
	d.ws()
	if d.pos < len(d.b) && d.b[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

// elems consumes an array, calling elem to decode each element.
func (d *bodyReader) elems(elem func()) {
	if !d.eat('[') {
		d.bad = true
		return
	}
	if d.eat(']') {
		return
	}
	for !d.bad {
		elem()
		if d.eat(',') {
			continue
		}
		if !d.eat(']') {
			d.bad = true
		}
		return
	}
}

// object consumes an object, calling field with each key, which aliases
// the body, to decode its value. field reports false for a key it does
// not know; a key seen twice is refused here.
func (d *bodyReader) object(field func(key []byte) bool) {
	if !d.eat('{') {
		d.bad = true
		return
	}
	if d.eat('}') {
		return
	}
	var seen [8][]byte
	n := 0
	for !d.bad {
		k := d.raw()
		if d.bad || !d.eat(':') {
			d.bad = true
			return
		}
		for _, s := range seen[:n] {
			if bytes.Equal(k, s) {
				d.bad = true
				return
			}
		}
		if n == len(seen) || !field(k) {
			d.bad = true
			return
		}
		seen[n] = k
		n++
		if d.eat(',') {
			continue
		}
		if !d.eat('}') {
			d.bad = true
		}
		return
	}
}

// raw consumes a string of printable ASCII without escapes and returns
// its contents, which alias the body.
func (d *bodyReader) raw() []byte {
	if !d.eat('"') {
		d.bad = true
		return nil
	}
	start := d.pos
	for ; d.pos < len(d.b); d.pos++ {
		switch c := d.b[d.pos]; {
		case c == '"':
			d.pos++
			return d.b[start : d.pos-1]
		case c < 0x20 || c == '\\' || c >= 0x80:
			d.bad = true
			return nil
		}
	}
	d.bad = true
	return nil
}

// str consumes a string value.
func (d *bodyReader) str() string {
	s := d.raw()
	if d.bad {
		return ""
	}
	return intern(s)
}

// intern returns the catalog labels, the default scenario and the
// rollout strategies without allocating, and a copy of any other string.
func intern(s []byte) string {
	switch string(s) {
	case "":
		return ""
	case "dns":
		return "dns"
	case "web":
		return "web"
	case "app":
		return "app"
	case "db":
		return "db"
	case "webalt":
		return "webalt"
	case "default":
		return "default"
	case "rolling":
		return "rolling"
	case "canary":
		return "canary"
	case "blue-green":
		return "blue-green"
	case "one-shot":
		return "one-shot"
	case "custom":
		return "custom"
	}
	return string(s)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// int consumes an integer of at most 18 digits with no fraction,
// exponent or leading zero.
func (d *bodyReader) int() int {
	d.ws()
	i := d.pos
	neg := i < len(d.b) && d.b[i] == '-'
	if neg {
		i++
	}
	start, n := i, 0
	for ; i < len(d.b) && isDigit(d.b[i]); i++ {
		n = n*10 + int(d.b[i]-'0')
	}
	digits := i - start
	if digits == 0 || digits > 18 || digits > 1 && d.b[start] == '0' ||
		i < len(d.b) && (d.b[i] == '.' || d.b[i] == 'e' || d.b[i] == 'E') {
		d.bad = true
		return 0
	}
	d.pos = i
	if neg {
		return -n
	}
	return n
}

// float consumes a number in the JSON grammar and converts it as
// encoding/json does; a value out of float64's range sets bad.
func (d *bodyReader) float() float64 {
	d.ws()
	i := d.pos
	if i < len(d.b) && d.b[i] == '-' {
		i++
	}
	digits := func() bool {
		start := i
		for i < len(d.b) && isDigit(d.b[i]) {
			i++
		}
		return i > start
	}
	switch {
	case i < len(d.b) && d.b[i] == '0':
		i++
	case !digits():
		d.bad = true
		return 0
	}
	if i < len(d.b) && d.b[i] == '.' {
		i++
		if !digits() {
			d.bad = true
			return 0
		}
	}
	if i < len(d.b) && (d.b[i] == 'e' || d.b[i] == 'E') {
		i++
		if i < len(d.b) && (d.b[i] == '+' || d.b[i] == '-') {
			i++
		}
		if !digits() {
			d.bad = true
			return 0
		}
	}
	f, err := strconv.ParseFloat(string(d.b[d.pos:i]), 64)
	if err != nil {
		d.bad = true
		return 0
	}
	d.pos = i
	return f
}

// spec consumes a DesignSpec.
func (d *bodyReader) spec() redpatch.DesignSpec {
	var s redpatch.DesignSpec
	d.object(func(k []byte) bool {
		switch string(k) {
		case "name":
			s.Name = d.str()
		case "tiers":
			s.Tiers = d.tiers()
		default:
			return false
		}
		return true
	})
	return s
}

// tiers consumes a DesignSpec's tier list into one allocation.
func (d *bodyReader) tiers() []redpatch.TierSpec {
	var stack [16]redpatch.TierSpec
	ts := stack[:0]
	d.elems(func() {
		var t redpatch.TierSpec
		d.object(func(k []byte) bool {
			switch string(k) {
			case "role":
				t.Role = d.str()
			case "replicas":
				t.Replicas = d.int()
			case "variant":
				t.Variant = d.str()
			default:
				return false
			}
			return true
		})
		ts = append(ts, t)
	})
	return append(make([]redpatch.TierSpec, 0, len(ts)), ts...)
}

// tierSweeps consumes a sweep's tier list.
func (d *bodyReader) tierSweeps() []redpatch.TierSweep {
	var stack [16]redpatch.TierSweep
	ts := stack[:0]
	d.elems(func() {
		var t redpatch.TierSweep
		d.object(func(k []byte) bool {
			switch string(k) {
			case "role":
				t.Role = d.str()
			case "min":
				t.Min = d.int()
			case "max":
				t.Max = d.int()
			case "variants":
				var stack [8]string
				vs := stack[:0]
				d.elems(func() { vs = append(vs, d.str()) })
				t.Variants = append(make([]string, 0, len(vs)), vs...)
			default:
				return false
			}
			return true
		})
		ts = append(ts, t)
	})
	return append(make([]redpatch.TierSweep, 0, len(ts)), ts...)
}

// scatter consumes Eq. 3 bounds.
func (d *bodyReader) scatter() *redpatch.ScatterBounds {
	b := new(redpatch.ScatterBounds)
	d.object(func(k []byte) bool {
		switch string(k) {
		case "maxAsp":
			b.MaxASP = d.float()
		case "minCoa":
			b.MinCOA = d.float()
		default:
			return false
		}
		return true
	})
	return b
}

// multi consumes Eq. 4 bounds.
func (d *bodyReader) multi() *redpatch.MultiBounds {
	b := new(redpatch.MultiBounds)
	d.object(func(k []byte) bool {
		switch string(k) {
		case "maxAsp":
			b.MaxASP = d.float()
		case "maxNoev":
			b.MaxNoEV = d.int()
		case "maxNoap":
			b.MaxNoAP = d.int()
		case "maxNoep":
			b.MaxNoEP = d.int()
		case "minCoa":
			b.MinCOA = d.float()
		default:
			return false
		}
		return true
	})
	return b
}

// schedule consumes a rollout schedule.
func (d *bodyReader) schedule() redpatch.RolloutSchedule {
	var s redpatch.RolloutSchedule
	d.object(func(k []byte) bool {
		switch string(k) {
		case "strategy":
			s.Strategy = d.str()
		case "steps":
			s.Steps = d.int()
		case "canaryFraction":
			s.CanaryFraction = d.float()
		case "order":
			s.Order = []int{}
			d.elems(func() { s.Order = append(s.Order, d.int()) })
		case "fractions":
			s.Fractions = [][]float64{}
			d.elems(func() {
				point := []float64{}
				d.elems(func() { point = append(point, d.float()) })
				s.Fractions = append(s.Fractions, point)
			})
		default:
			return false
		}
		return true
	})
	return s
}
