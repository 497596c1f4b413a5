// Package telemetry is the measurement substrate of the repository: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket histograms, optionally labeled), a lightweight span tracer
// for pipeline stages, and the debug HTTP surface (/metrics, /spans,
// expvar, pprof) the CLIs expose behind -debug-addr.
//
// Metrics are registered once (typically in a package-level var block)
// and updated lock-free on hot paths; they are always on. Snapshots
// (Capture) serialise the whole registry plus the span table for the
// JSON telemetry reports leaps-train and leaps-detect write next to
// their outputs.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metric is the common behaviour of every registered instrument.
type metric interface {
	metricName() string
	snapshot() []MetricSnapshot
}

// Registry holds named instruments. Registration is get-or-create: asking
// twice for the same name and kind returns the same instrument, so
// package-level var blocks stay idempotent under repeated test binaries.
// Asking for an existing name with a different kind panics — that is a
// programming error, not a runtime condition.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry. Most code uses Default instead.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry all package-level instruments
// register on.
func Default() *Registry { return defaultRegistry }

// register implements get-or-create with kind checking.
func (r *Registry) register(name string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	r.metrics[name] = m
	return m
}

// Counter returns the named monotonic counter, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, func() metric { return &Counter{name: name, help: help} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, func() metric { return &Gauge{name: name, help: help} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket upper bounds if needed (an implicit +Inf bucket is
// always appended).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.register(name, func() metric { return newHistogram(name, help, bounds) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return h
}

// CounterVec returns the named counter family keyed by one label,
// creating it if needed.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	m := r.register(name, func() metric {
		return &CounterVec{name: name, help: help, label: label, children: make(map[string]*Counter)}
	})
	v, ok := m.(*CounterVec)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return v
}

// HistogramVec returns the named histogram family keyed by one label,
// creating it with the given bucket layout if needed.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	m := r.register(name, func() metric {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		return &HistogramVec{name: name, help: help, label: label, bounds: b,
			children: make(map[string]*Histogram)}
	})
	v, ok := m.(*HistogramVec)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return v
}

// Reset zeroes every instrument in the registry (labeled children are
// dropped entirely). Meant for tests and for CLIs separating runs.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		switch m := m.(type) {
		case *Counter:
			m.v.Store(0)
		case *Gauge:
			m.bits.Store(0)
		case *Histogram:
			m.reset()
		case *CounterVec:
			m.mu.Lock()
			m.children = make(map[string]*Counter)
			m.mu.Unlock()
		case *HistogramVec:
			m.mu.Lock()
			m.children = make(map[string]*Histogram)
			m.mu.Unlock()
		}
	}
}

// Snapshot returns a point-in-time copy of every instrument, sorted by
// name (then label value) for stable output.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	ms := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	var out []MetricSnapshot
	for _, m := range ms {
		out = append(out, m.snapshot()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].LabelValue < out[j].LabelValue
	})
	return out
}

// Package-level conveniences registering on the Default registry.

// NewCounter registers a counter on the default registry.
func NewCounter(name, help string) *Counter { return Default().Counter(name, help) }

// NewGauge registers a gauge on the default registry.
func NewGauge(name, help string) *Gauge { return Default().Gauge(name, help) }

// NewHistogram registers a histogram on the default registry.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	return Default().Histogram(name, help, bounds)
}

// NewCounterVec registers a labeled counter family on the default
// registry.
func NewCounterVec(name, help, label string) *CounterVec {
	return Default().CounterVec(name, help, label)
}

// NewHistogramVec registers a labeled histogram family on the default
// registry.
func NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return Default().HistogramVec(name, help, label, bounds)
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	name, help string
	labelKey   string
	labelVal   string
	v          atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }

func (c *Counter) snapshot() []MetricSnapshot {
	s := MetricSnapshot{Name: c.name, Kind: "counter", Help: c.help, Value: float64(c.v.Load())}
	s.Label, s.LabelValue = c.labelKey, c.labelVal
	return []MetricSnapshot{s}
}

// Gauge is a float64 that can go up and down.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) metricName() string { return g.name }

func (g *Gauge) snapshot() []MetricSnapshot {
	return []MetricSnapshot{{Name: g.name, Kind: "gauge", Help: g.help, Value: g.Value()}}
}

// Exemplar is one sampled observation annotated with the trace it came
// from — the join key between a latency histogram bucket and the
// request that landed in it.
type Exemplar struct {
	// Value is the observed value.
	Value float64 `json:"value"`
	// TraceID is the hex trace ID of the observing request.
	TraceID string `json:"trace_id"`
	// Time is when the observation was recorded.
	Time time.Time `json:"time"`
}

// Histogram counts observations into a fixed ascending bucket layout.
// Bucket counts are non-cumulative internally and cumulated at snapshot
// time, Prometheus-style. Each bucket keeps the most recent traced
// observation as its exemplar.
type Histogram struct {
	name, help string
	labelKey   string
	labelVal   string
	bounds     []float64 // ascending upper bounds; implicit +Inf after
	counts     []atomic.Uint64
	exemplars  []atomic.Pointer[Exemplar]
	sumBits    atomic.Uint64
	count      atomic.Uint64
}

func newHistogram(name, help string, bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{name: name, help: help, bounds: b,
		counts:    make([]atomic.Uint64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1)}
}

// bucketIndex returns which bucket v lands in.
func (h *Histogram) bucketIndex(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveTraced records one value and, when traceID is non-empty,
// replaces the landing bucket's exemplar with this observation.
func (h *Histogram) ObserveTraced(v float64, traceID string) {
	h.Observe(v)
	if traceID == "" {
		return
	}
	h.exemplars[h.bucketIndex(v)].Store(&Exemplar{Value: v, TraceID: traceID, Time: time.Now()})
}

// reset zeroes the histogram's counters and drops its exemplars.
func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
		h.exemplars[i].Store(nil)
	}
	h.sumBits.Store(0)
	h.count.Store(0)
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) metricName() string { return h.name }

func (h *Histogram) snapshot() []MetricSnapshot {
	s := MetricSnapshot{
		Name:  h.name,
		Kind:  "histogram",
		Help:  h.help,
		Value: h.Sum(),
		Count: h.count.Load(),
	}
	s.Label, s.LabelValue = h.labelKey, h.labelVal
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, Bucket{UpperBound: ub, Count: cum, Exemplar: h.exemplars[i].Load()})
	}
	return []MetricSnapshot{s}
}

// MaxLabelCardinality caps how many distinct label values a labeled
// family (CounterVec, HistogramVec) will materialise. Values arriving
// past the cap are folded into a single overflow child labeled
// OverflowLabel, so hostile or buggy label values — session IDs, raw
// error strings — cannot grow the registry (and every scrape) without
// bound. The overflow child's count surfaces in Snapshot() like any
// other child, making the drop itself observable.
const MaxLabelCardinality = 64

// OverflowLabel is the label value of the fold-in child that absorbs
// updates for values past MaxLabelCardinality.
const OverflowLabel = "_overflow"

// CounterVec is a family of counters distinguished by one label value
// (e.g. etl_skipped_records_total{cause=...}). Hot paths should resolve
// With once and cache the child counter. Distinct label values are
// capped at MaxLabelCardinality; the excess folds into OverflowLabel.
type CounterVec struct {
	name, help, label string
	mu                sync.RWMutex
	children          map[string]*Counter
}

// With returns the child counter for the given label value, creating it
// on first use. Past MaxLabelCardinality distinct values it returns the
// shared overflow child instead.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c, ok := v.children[value]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.children[value]; ok {
		return c
	}
	if len(v.children) >= MaxLabelCardinality {
		value = OverflowLabel
		if c, ok = v.children[value]; ok {
			return c
		}
	}
	c = &Counter{name: v.name, help: v.help, labelKey: v.label, labelVal: value}
	v.children[value] = c
	return c
}

func (v *CounterVec) metricName() string { return v.name }

func (v *CounterVec) snapshot() []MetricSnapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]MetricSnapshot, 0, len(v.children))
	for _, c := range v.children {
		out = append(out, c.snapshot()...)
	}
	return out
}

// HistogramVec is a family of histograms distinguished by one label
// value (e.g. serve_http_seconds{route=...}), sharing one bucket
// layout. Distinct label values are capped at MaxLabelCardinality; the
// excess folds into OverflowLabel.
type HistogramVec struct {
	name, help, label string
	bounds            []float64
	mu                sync.RWMutex
	children          map[string]*Histogram
}

// With returns the child histogram for the given label value, creating
// it on first use. Past MaxLabelCardinality distinct values it returns
// the shared overflow child instead.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h, ok := v.children[value]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.children[value]; ok {
		return h
	}
	if len(v.children) >= MaxLabelCardinality {
		value = OverflowLabel
		if h, ok = v.children[value]; ok {
			return h
		}
	}
	h = newHistogram(v.name, v.help, v.bounds)
	h.labelKey, h.labelVal = v.label, value
	v.children[value] = h
	return h
}

func (v *HistogramVec) metricName() string { return v.name }

func (v *HistogramVec) snapshot() []MetricSnapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]MetricSnapshot, 0, len(v.children))
	for _, h := range v.children {
		out = append(out, h.snapshot()...)
	}
	return out
}

// LinearBuckets returns n ascending bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n ascending bounds start, start·factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets is the shared latency layout: 1µs to ~67s in powers of
// four, in seconds.
func DurationBuckets() []float64 { return ExpBuckets(1e-6, 4, 14) }

// CountBuckets is the shared iteration/count layout: 1 to ~262k in powers
// of four.
func CountBuckets() []float64 { return ExpBuckets(1, 4, 10) }

// UnitBuckets is the shared [0,1] layout in steps of 0.1 (weights,
// ratios, probabilities).
func UnitBuckets() []float64 { return LinearBuckets(0.1, 0.1, 10) }
