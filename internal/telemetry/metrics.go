// Package telemetry is the repo's dependency-free observability layer:
// a race-safe metrics registry rendered in Prometheus text exposition
// format, and a trace layer (trace IDs + bounded span recorders) that
// follows a sweep submission across coalescing, cache tiers, the enum
// store, and fleet forwards.
//
// Determinism contract: telemetry is strictly write-beside. Nothing in
// this package may ever feed into cache keys, manifests, or payloads —
// instruments observe the data path, they never join it.
package telemetry

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
)

// Counter is a monotonically increasing event count.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the gauge by delta (atomic read-modify-write).
func (g *Gauge) Add(delta float64) {
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

// Histogram is a bounded-bucket cumulative histogram (latencies,
// sizes). Buckets are upper bounds in ascending order; observations
// above the last bound land only in the implicit +Inf bucket.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations so far.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// snapshot copies the histogram state for rendering.
func (h *Histogram) snapshot() (counts []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]uint64(nil), h.counts...), h.sum, h.count
}

// LatencyBuckets is the default bucket ladder for duration histograms,
// in seconds: microsecond sweeps through half-minute campaigns.
func LatencyBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}
}

// SizeBuckets is the default bucket ladder for byte-size histograms:
// 256 B through 16 MiB in powers of four.
func SizeBuckets() []float64 {
	return []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216}
}

// Sample is one series emitted by a sampler-backed family: label
// values (matching the family's label names) plus the current value.
// Samplers let existing atomic counters (fleet peers, cache and disk
// tiers) surface in /metrics without double accounting.
type Sample struct {
	Labels []string
	Value  float64
}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one live instrument inside a family.
type series struct {
	labels []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one named metric: fixed type, label schema, and either
// live instrument series or a sampler function.
type family struct {
	name       string
	help       string
	typ        string
	labelNames []string
	bounds     []float64 // histogram families

	mu      sync.Mutex
	series  map[string]*series
	order   []string // insertion-independent sorted render order, rebuilt lazily
	sampler func() []Sample
}

// Registry is a set of metric families rendered together. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup fetches or creates a family, enforcing that a name keeps one
// type and label schema for the registry's lifetime.
func (r *Registry) lookup(name, help, typ string, labelNames []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s%v, was %s%v",
				name, typ, labelNames, f.typ, f.labelNames))
		}
		for i := range labelNames {
			if f.labelNames[i] != labelNames[i] {
				panic(fmt.Sprintf("telemetry: %s re-registered with labels %v, was %v",
					name, labelNames, f.labelNames))
			}
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		typ:        typ,
		labelNames: append([]string(nil), labelNames...),
		bounds:     append([]float64(nil), bounds...),
		series:     make(map[string]*series),
	}
	r.families[name] = f
	return f
}

// get fetches or creates the series for the given label values.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d",
			f.name, len(f.labelNames), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s := &series{labels: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		s.c = &Counter{}
	case typeGauge:
		s.g = &Gauge{}
	case typeHistogram:
		s.h = &Histogram{bounds: f.bounds, counts: make([]uint64, len(f.bounds)+1)}
	}
	f.series[key] = s
	f.order = nil
	return s
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, typeCounter, nil, nil).get(nil).c
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, typeGauge, nil, nil).get(nil).g
}

// Histogram registers (or fetches) an unlabeled histogram. The first
// registration fixes the bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.lookup(name, help, typeHistogram, nil, bounds).get(nil).h
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{r.lookup(name, help, typeCounter, labelNames, nil)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).c }

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{r.lookup(name, help, typeGauge, labelNames, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).g }

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{r.lookup(name, help, typeHistogram, labelNames, bounds)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).h }

// CounterSampler registers a counter family whose series are produced
// by fn at render time — the bridge for subsystems that already keep
// their own atomic counters. Re-registering a name replaces the
// sampler (the newest owner of the underlying state wins).
func (r *Registry) CounterSampler(name, help string, labelNames []string, fn func() []Sample) {
	f := r.lookup(name, help, typeCounter, labelNames, nil)
	f.mu.Lock()
	f.sampler = fn
	f.mu.Unlock()
}

// GaugeSampler registers a gauge family whose series are produced by
// fn at render time. Re-registering a name replaces the sampler.
func (r *Registry) GaugeSampler(name, help string, labelNames []string, fn func() []Sample) {
	f := r.lookup(name, help, typeGauge, labelNames, nil)
	f.mu.Lock()
	f.sampler = fn
	f.mu.Unlock()
}

// escapeHelp escapes a HELP text per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatValue renders a sample value: integral values print without
// an exponent so counters stay human-readable and goldens stable.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders a {k="v",...} block, with extra appended last
// (histogram le bounds). Empty input renders nothing.
func labelString(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(names[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteString(`"`)
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(extraV)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// WriteTo renders the registry in Prometheus text exposition format:
// families sorted by name, series sorted by label values, stable
// across calls so goldens can pin the rendering.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// render writes one family's HELP/TYPE header and all series.
func (f *family) render(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)

	f.mu.Lock()
	if f.sampler != nil {
		samples := f.sampler()
		f.mu.Unlock()
		sort.Slice(samples, func(i, j int) bool {
			return strings.Join(samples[i].Labels, "\xff") < strings.Join(samples[j].Labels, "\xff")
		})
		for _, s := range samples {
			if len(s.Labels) != len(f.labelNames) {
				continue // malformed sampler output; drop rather than corrupt the exposition
			}
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labelNames, s.Labels, "", ""), formatValue(s.Value))
		}
		return
	}
	if f.order == nil {
		for key := range f.series {
			f.order = append(f.order, key)
		}
		sort.Strings(f.order)
	}
	ordered := make([]*series, 0, len(f.order))
	for _, key := range f.order {
		ordered = append(ordered, f.series[key])
	}
	f.mu.Unlock()

	for _, s := range ordered {
		switch f.typ {
		case typeCounter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labelNames, s.labels, "", ""), s.c.Value())
		case typeGauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labelNames, s.labels, "", ""), formatValue(s.g.Value()))
		case typeHistogram:
			counts, sum, count := s.h.snapshot()
			var cum uint64
			for i, bound := range f.bounds {
				cum += counts[i]
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labelNames, s.labels, "le", formatValue(bound)), cum)
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				labelString(f.labelNames, s.labels, "le", "+Inf"), count)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name,
				labelString(f.labelNames, s.labels, "", ""), formatValue(sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name,
				labelString(f.labelNames, s.labels, "", ""), count)
		}
	}
}

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteTo(w)
	})
}
