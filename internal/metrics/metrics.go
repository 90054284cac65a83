// Package metrics is a dependency-free Prometheus-compatible metrics
// registry: counters, gauges and fixed-bucket latency histograms, plain
// or labelled, exposed in the text exposition format (version 0.0.4)
// that any Prometheus-compatible scraper ingests. redpatchd mounts a
// Registry behind GET /metrics; nothing here imports anything beyond
// the standard library.
//
// Registration (the New* constructors) panics on invalid or duplicate
// metric names — those are programmer errors, caught by the first test
// that touches the registry — while observation (Inc, Add, Observe,
// Set) is cheap and safe for concurrent use: counters and gauges are
// single atomics, histograms take a short mutex.
//
// Collector callbacks (NewCounterVecFunc, NewGaugeFunc and
// NewGaugeVecFunc) export state owned elsewhere — engine cache counters, registry
// sizes — by reading it at scrape time instead of double-counting it
// through increments.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets are the default latency histogram buckets (seconds), the
// conventional Prometheus spread from 5ms to 10s.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExpBuckets returns count exponentially spaced bucket bounds starting
// at start and multiplying by factor — the spread for durations DefBuckets
// is too coarse for, like microsecond-scale factored solves. start must
// be positive and factor above 1.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic(fmt.Sprintf("metrics: ExpBuckets(%g, %g, %d): need start > 0, factor > 1, count >= 1", start, factor, count))
	}
	out := make([]float64, count)
	b := start
	for i := range out {
		out[i] = b
		b *= factor
	}
	return out
}

var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// metricType is the TYPE line vocabulary.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Sample is one labelled value emitted by a collector callback: Labels
// must align with the label names the collector was registered with.
type Sample struct {
	Labels []string
	Value  float64
}

// Registry holds metric families and renders them in registration
// order. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu    sync.RWMutex
	byNam map[string]*family
	fams  []*family
}

// family is one named metric family: either a map of live children
// keyed by label values, or a collector callback read at scrape time.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]observer // keyed by joined label values
	collect  func() []Sample     // collector families only
}

// observer is any live child a family can render.
type observer interface {
	write(w io.Writer, fam *family, labelValues []string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byNam: make(map[string]*family)}
}

// register validates and stores a family, panicking on conflicts.
func (r *Registry) register(f *family) *family {
	if !metricNameRE.MatchString(f.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !labelNameRE.MatchString(l) {
			panic(fmt.Sprintf("metrics: metric %q: invalid label name %q", f.name, l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byNam[f.name]; dup {
		panic(fmt.Sprintf("metrics: metric %q registered twice", f.name))
	}
	r.byNam[f.name] = f
	r.fams = append(r.fams, f)
	return f
}

// --- counters ------------------------------------------------------------

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas panic (counters only go
// up — use a Gauge for anything that can fall).
func (c *Counter) Add(d float64) {
	if d < 0 {
		panic("metrics: counter decreased")
	}
	addFloat(&c.bits, d)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) write(w io.Writer, fam *family, lv []string) {
	writeSample(w, fam.name, fam.labels, lv, c.Value())
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ fam *family }

// With returns (creating on first use) the child for the label values.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.fam.child(labelValues, func() observer { return &Counter{} }).(*Counter)
}

// NewCounter registers a label-less counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	v := r.NewCounterVec(name, help)
	return v.With()
}

// NewCounterVec registers a counter family with the given label names.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	f := r.register(&family{
		name: name, help: help, typ: typeCounter, labels: labels,
		children: make(map[string]observer),
	})
	return &CounterVec{fam: f}
}

// NewCounterVecFunc registers a labelled counter collector: fn is
// called at scrape time and returns one sample per child.
func (r *Registry) NewCounterVecFunc(name, help string, labels []string, fn func() []Sample) {
	r.register(&family{name: name, help: help, typ: typeCounter, labels: labels, collect: fn})
}

// --- gauges --------------------------------------------------------------

// Gauge is a value that can move in both directions.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by d (negative deltas allowed).
func (g *Gauge) Add(d float64) { addFloat(&g.bits, d) }

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, fam *family, lv []string) {
	writeSample(w, fam.name, fam.labels, lv, g.Value())
}

// GaugeVec is a gauge family partitioned by labels.
type GaugeVec struct{ fam *family }

// With returns (creating on first use) the child for the label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.fam.child(labelValues, func() observer { return &Gauge{} }).(*Gauge)
}

// NewGauge registers a label-less gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	v := r.NewGaugeVec(name, help)
	return v.With()
}

// NewGaugeVec registers a gauge family with the given label names.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	f := r.register(&family{
		name: name, help: help, typ: typeGauge, labels: labels,
		children: make(map[string]observer),
	})
	return &GaugeVec{fam: f}
}

// NewGaugeFunc registers a gauge whose value is read by fn at scrape
// time. fn must be safe for concurrent use.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.NewGaugeVecFunc(name, help, nil, func() []Sample {
		return []Sample{{Value: fn()}}
	})
}

// NewGaugeVecFunc registers a labelled gauge collector: fn is called at
// scrape time and returns one sample per child.
func (r *Registry) NewGaugeVecFunc(name, help string, labels []string, fn func() []Sample) {
	r.register(&family{name: name, help: help, typ: typeGauge, labels: labels, collect: fn})
}

// --- histograms ----------------------------------------------------------

// Histogram accumulates observations into fixed buckets. Buckets are
// upper bounds in ascending order; an implicit +Inf bucket catches the
// tail, and _sum/_count come along as Prometheus requires.
type Histogram struct {
	upper []float64 // shared with the family, read-only

	mu     sync.Mutex
	counts []uint64 // per-bucket (not cumulative), +Inf last
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search the first bucket whose upper bound holds v; the
	// +Inf slot is len(upper).
	i := sort.SearchFloat64s(h.upper, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Mean returns the average of all observations, 0 before the first.
// redpatchd's admission layer reads it to estimate Retry-After for
// shed requests (expected service time × queue depth ÷ concurrency).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

func (h *Histogram) write(w io.Writer, fam *family, lv []string) {
	h.mu.Lock()
	counts := append([]uint64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()

	labels := append(append([]string(nil), fam.labels...), "le")
	cum := uint64(0)
	for i, ub := range h.upper {
		cum += counts[i]
		writeSample(w, fam.name+"_bucket", labels, append(append([]string(nil), lv...), formatFloat(ub)), float64(cum))
	}
	writeSample(w, fam.name+"_bucket", labels, append(append([]string(nil), lv...), "+Inf"), float64(count))
	writeSample(w, fam.name+"_sum", fam.labels, lv, sum)
	writeSample(w, fam.name+"_count", fam.labels, lv, float64(count))
}

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ fam *family }

// With returns (creating on first use) the child for the label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.fam.child(labelValues, func() observer {
		return &Histogram{upper: v.fam.buckets, counts: make([]uint64, len(v.fam.buckets)+1)}
	}).(*Histogram)
}

// NewHistogram registers a label-less histogram with the given bucket
// upper bounds (nil selects DefBuckets).
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	v := r.NewHistogramVec(name, help, buckets)
	return v.With()
}

// NewHistogramVec registers a histogram family. buckets are upper
// bounds, strictly ascending; nil selects DefBuckets. "le" is reserved
// as a label name.
func (r *Registry) NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q: buckets not strictly ascending", name))
		}
	}
	for _, l := range labels {
		if l == "le" {
			panic(fmt.Sprintf("metrics: histogram %q: label name \"le\" is reserved", name))
		}
	}
	f := r.register(&family{
		name: name, help: help, typ: typeHistogram, labels: labels,
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]observer),
	})
	return &HistogramVec{fam: f}
}

// --- family internals ----------------------------------------------------

// childSep joins label values into a map key; label values may contain
// anything but this byte is invalid UTF-8 and cannot collide.
const childSep = "\xff"

func (f *family) child(labelValues []string, make func() observer) observer {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("metrics: metric %q: got %d label values, want %d",
			f.name, len(labelValues), len(f.labels)))
	}
	k := strings.Join(labelValues, childSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[k]; ok {
		return c
	}
	c := make()
	f.children[k] = c
	return c
}

// --- exposition ----------------------------------------------------------

// WriteTo renders every family in registration order, children sorted
// by label values, in the Prometheus text format.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	r.mu.RLock()
	fams := append([]*family(nil), r.fams...)
	r.mu.RUnlock()
	for _, f := range fams {
		f.writeTo(cw)
		if cw.err != nil {
			break
		}
	}
	return cw.n, cw.err
}

// Handler serves the registry over HTTP with the exposition-format
// content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}

func (f *family) writeTo(w io.Writer) {
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)

	if f.collect != nil {
		samples := f.collect()
		sort.Slice(samples, func(i, j int) bool {
			return strings.Join(samples[i].Labels, childSep) < strings.Join(samples[j].Labels, childSep)
		})
		for _, s := range samples {
			if len(s.Labels) != len(f.labels) {
				panic(fmt.Sprintf("metrics: collector %q: sample has %d label values, want %d",
					f.name, len(s.Labels), len(f.labels)))
			}
			writeSample(w, f.name, f.labels, s.Labels, s.Value)
		}
		return
	}

	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]observer, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()

	for i, c := range children {
		var lv []string
		if keys[i] != "" || len(f.labels) > 0 {
			lv = strings.Split(keys[i], childSep)
		}
		c.write(w, f, lv)
	}
}

// writeSample renders one "name{labels} value" line.
func writeSample(w io.Writer, name string, labels, values []string, v float64) {
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(values[i]))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	sb.WriteByte(' ')
	sb.WriteString(formatFloat(v))
	sb.WriteByte('\n')
	_, _ = io.WriteString(w, sb.String())
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// addFloat CAS-adds a delta onto a float64 stored in atomic bits.
func addFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
