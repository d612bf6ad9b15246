// Package obs is the engine's dependency-free observability kit: a metrics
// registry (atomic counters, gauges, fixed-bucket histograms) with Prometheus
// text-format exposition, and a lightweight span collector for per-query
// tracing (trace.go). Everything is stdlib-only so the engine keeps its
// zero-dependency posture.
//
// The package-level Default registry pre-registers every engine metric
// (metrics are declared next to their registration in defaults.go), so
// instrumented packages just import obs and touch the shared vars — no
// config plumbing through constructors. SetEnabled(false) turns every
// mutation into an early-return no-op; the bench suite uses that to measure
// the instrumentation's inline cost against a compiled-in no-op.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates every metric mutation. Reads and exposition always work; a
// disabled registry simply stops moving.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns metric collection on or off process-wide. Off makes every
// Inc/Add/Set/Observe an early-return no-op (the bench overhead sweep's
// baseline). Tracing is unaffected: spans are allocated only when a caller
// asks for a trace, so they are already pay-for-use.
func SetEnabled(v bool) { enabled.Store(v) }

// metric is anything the registry can expose. name/help/kind feed the
// # HELP / # TYPE comment lines; write appends the sample lines.
type metric interface {
	metricName() string
	metricHelp() string
	metricKind() string // "counter", "gauge" or "histogram"
	write(b *strings.Builder)
}

// Registry holds a fixed set of metrics and renders them in Prometheus text
// exposition format (version 0.0.4). Registration happens at init time;
// duplicate names panic (they would silently shadow each other at scrape).
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]bool
}

// NewRegistry returns an empty registry. Most callers want Default.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// Default is the process-wide registry every engine metric registers with.
var Default = NewRegistry()

func (r *Registry) register(m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[m.metricName()] {
		panic("obs: duplicate metric " + m.metricName())
	}
	r.names[m.metricName()] = true
	r.metrics = append(r.metrics, m)
}

// Counter registers a monotonically increasing counter. Names must end in
// _total per the exposition conventions (enforced by the lint test).
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Gauge registers a gauge: a value that can go up and down.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// GaugeVec registers a family of gauges keyed by one label (e.g. table
// name). Children are created on first use and persist until the process
// exits; the label space is expected to be small and stable.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	v := &GaugeVec{name: name, help: help, label: label, kids: make(map[string]*Gauge)}
	r.register(v)
	return v
}

// Histogram registers a fixed-bucket histogram. bounds must be sorted
// ascending; an implicit +Inf bucket is appended. Buckets are stored
// non-cumulatively and accumulated at exposition time, so the rendered
// le-series is cumulative by construction.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not ascending: " + name)
		}
	}
	h := &Histogram{name: name, help: help, bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
	r.register(h)
	return h
}

// Each calls f for every registered metric's name and kind, in registration
// order. Used by the name-convention lint test.
func (r *Registry) Each(f func(name, kind string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		f(m.metricName(), m.metricKind())
	}
}

// WritePrometheus renders every registered metric in text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	metrics := make([]metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.Unlock()
	var b strings.Builder
	for _, m := range metrics {
		fmt.Fprintf(&b, "# HELP %s %s\n", m.metricName(), m.metricHelp())
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.metricName(), m.metricKind())
		m.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry as an HTTP endpoint (the /metrics route).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Counter is a monotonically increasing counter.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Negative deltas are ignored: counters are monotone.
func (c *Counter) Add(n int64) {
	if n <= 0 || !enabled.Load() {
		return
	}
	c.v.Add(uint64(n))
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricHelp() string { return c.help }
func (c *Counter) metricKind() string { return "counter" }
func (c *Counter) write(b *strings.Builder) {
	b.WriteString(c.name)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatUint(c.v.Load(), 10))
	b.WriteByte('\n')
}

// Gauge is a value that can move in either direction.
type Gauge struct {
	name, help string
	bits       atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if !enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta float64) {
	if !enabled.Load() {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) metricHelp() string { return g.help }
func (g *Gauge) metricKind() string { return "gauge" }
func (g *Gauge) write(b *strings.Builder) {
	b.WriteString(g.name)
	b.WriteByte(' ')
	b.WriteString(formatFloat(g.Value()))
	b.WriteByte('\n')
}

// GaugeVec is a single-label gauge family.
type GaugeVec struct {
	name, help, label string
	mu                sync.Mutex
	kids              map[string]*Gauge
}

// With returns (creating if needed) the child gauge for the label value.
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.kids[value]
	if !ok {
		g = &Gauge{name: v.name, help: v.help}
		v.kids[value] = g
	}
	return g
}

func (v *GaugeVec) metricName() string { return v.name }
func (v *GaugeVec) metricHelp() string { return v.help }
func (v *GaugeVec) metricKind() string { return "gauge" }
func (v *GaugeVec) write(b *strings.Builder) {
	v.mu.Lock()
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids := make([]*Gauge, len(keys))
	for i, k := range keys {
		kids[i] = v.kids[k]
	}
	v.mu.Unlock()
	for i, k := range keys {
		fmt.Fprintf(b, "%s{%s=\"%s\"} %s\n", v.name, v.label, escapeLabel(k), formatFloat(kids[i].Value()))
	}
}

// Histogram is a fixed-bucket histogram of float64 observations.
type Histogram struct {
	name, help string
	bounds     []float64
	buckets    []atomic.Uint64 // per-bucket (non-cumulative); last is +Inf
	count      atomic.Uint64
	sumBits    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. le-bucket
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	if !enabled.Load() {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricHelp() string { return h.help }
func (h *Histogram) metricKind() string { return "histogram" }
func (h *Histogram) write(b *strings.Builder) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", h.name, formatFloat(bound), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(b, "%s_sum %s\n", h.name, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count %d\n", h.name, h.count.Load())
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeLabel(s string) string {
	// %q already escapes quotes and backslashes and renders newlines as \n,
	// matching the exposition format's label escaping.
	q := strconv.Quote(s)
	return q[1 : len(q)-1]
}
