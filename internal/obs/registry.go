// Package obs is the system's telemetry layer: a dependency-free metrics
// registry with Prometheus text exposition, hierarchical span tracing for
// pipeline stage timing, and a shared log/slog handler configuration. Every
// runtime package (webaudio rendering, study orchestration, the collection
// server/client, storage) reports through it, so one /metrics scrape or one
// -trace-json file shows where time, errors, and records go end to end.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attaches dimension values to a metric series. Keep cardinality
// bounded: labels become distinct time series on every scrape.
type Labels map[string]string

// Registry holds metric families and renders them in the Prometheus text
// exposition format. All methods are safe for concurrent use; Counter,
// Gauge and Histogram are get-or-create, so any package may (re)declare a
// series it shares with others.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// Default is the process-wide registry. Library packages (webaudio,
// vectors, storage, collectclient) record here; servers may expose it
// directly or substitute their own registry via configuration.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family is one metric name with its help text and all labeled series.
type family struct {
	name string
	help string
	kind metricKind

	mu     sync.RWMutex
	series map[string]any // seriesKey(labels) → *Counter | *Gauge | *Histogram
}

func (r *Registry) family(name, help string, kind metricKind) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s",
			name, f.kind, kind))
	}
	return f
}

// seriesKey renders labels into a deterministic map key that doubles as the
// exposition label block ("" for unlabeled series).
func seriesKey(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel applies the exposition format's label-value escaping.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// Counter returns (creating if needed) the counter series name{labels}.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	f := r.family(name, help, kindCounter)
	key := seriesKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m.(*Counter)
	}
	c := &Counter{}
	f.series[key] = c
	return c
}

// Gauge returns (creating if needed) the gauge series name{labels}.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	f := r.family(name, help, kindGauge)
	key := seriesKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m.(*Gauge)
	}
	g := &Gauge{}
	f.series[key] = g
	return g
}

// GaugeFunc registers a gauge whose value is read at scrape time — for
// live quantities another data structure already tracks (active sessions,
// store record counts). Re-registering the same series replaces fn.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	f := r.family(name, help, kindGauge)
	key := seriesKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.series[key] = gaugeFunc(fn)
}

type gaugeFunc func() float64

// Histogram returns (creating if needed) the histogram series name{labels}
// with the given bucket upper bounds (ascending; +Inf is implicit). If the
// series already exists its original buckets are kept.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	f := r.family(name, help, kindHistogram)
	key := seriesKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m.(*Histogram)
	}
	h := newHistogram(buckets)
	f.series[key] = h
	return h
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds delta (may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds 1; Dec subtracts 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution metric (latencies, sizes).
// Observations are lock-free.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, per-bucket (non-cumulative)
	count  atomic.Uint64
	sum    atomicFloat
}

// atomicFloat accumulates float64 values with CAS.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func newHistogram(buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.load() }

// LatencyBuckets covers 100µs … ~100s, suitable for request and render
// durations in seconds.
func LatencyBuckets() []float64 {
	return []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025,
		.05, .1, .25, .5, 1, 2.5, 5, 10, 30, 100}
}

// SizeBuckets covers 64B … 16MiB, suitable for payload sizes in bytes.
func SizeBuckets() []float64 {
	return []float64{64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10,
		256 << 10, 1 << 20, 4 << 20, 16 << 20}
}

// WriteTo renders the registry in the Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label block,
// histograms expanded into cumulative _bucket/_sum/_count samples.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, len(names))
	sort.Strings(names)
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.RUnlock()

	cw := &countingWriter{w: w}
	for _, f := range fams {
		if err := f.write(cw); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

func (f *family) write(w io.Writer) error {
	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	series := make([]any, len(keys))
	for i, k := range keys {
		series[i] = f.series[k]
	}
	f.mu.RUnlock()

	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " ")); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	for i, m := range series {
		if err := writeSeries(w, f.name, keys[i], m); err != nil {
			return err
		}
	}
	return nil
}

// joinLabels merges a rendered label block with one extra label (for
// histogram le="...").
func joinLabels(block, extra string) string {
	switch {
	case block == "" && extra == "":
		return ""
	case block == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + block + "}"
	}
	return "{" + block + "," + extra + "}"
}

func writeSeries(w io.Writer, name, labelBlock string, m any) error {
	switch m := m.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, joinLabels(labelBlock, ""), m.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, joinLabels(labelBlock, ""), formatFloat(m.Value()))
		return err
	case gaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, joinLabels(labelBlock, ""), formatFloat(m()))
		return err
	case *Histogram:
		var cum uint64
		for i, bound := range m.bounds {
			cum += m.counts[i].Load()
			le := fmt.Sprintf("le=%q", formatFloat(bound))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, joinLabels(labelBlock, le), cum); err != nil {
				return err
			}
		}
		cum += m.counts[len(m.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, joinLabels(labelBlock, `le="+Inf"`), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, joinLabels(labelBlock, ""), formatFloat(m.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, joinLabels(labelBlock, ""), m.Count())
		return err
	}
	return fmt.Errorf("obs: unknown series type %T", m)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Snapshot returns every sample in the registry as structured data —
// the same flattening WriteTo renders as text (histograms expand into
// cumulative _bucket/_sum/_count samples) — for consumers that need to
// read values back rather than serve a scrape: the telemetry exporter's
// periodic metrics flush and the watch monitor's error-budget rules.
// Families and series come out in the deterministic exposition order.
func (r *Registry) Snapshot() []Sample {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.RUnlock()

	var out []Sample
	for _, f := range fams {
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		series := make([]any, len(keys))
		for i, k := range keys {
			series[i] = f.series[k]
		}
		f.mu.RUnlock()
		for i, m := range series {
			out = append(out, sampleSeries(f.name, f.kind.String(), keys[i], m)...)
		}
	}
	return out
}

// sampleSeries flattens one series into Samples; labelBlock is the
// rendered exposition label key (parsed back into a map).
func sampleSeries(name, kind, labelBlock string, m any) []Sample {
	labels := func() map[string]string {
		l := map[string]string{}
		if labelBlock != "" {
			_ = parseLabels(labelBlock, l) // rendered by seriesKey: always parses
		}
		return l
	}
	switch m := m.(type) {
	case *Counter:
		return []Sample{{Name: name, Labels: labels(), Value: float64(m.Value()), Type: kind}}
	case *Gauge:
		return []Sample{{Name: name, Labels: labels(), Value: m.Value(), Type: kind}}
	case gaugeFunc:
		return []Sample{{Name: name, Labels: labels(), Value: m(), Type: kind}}
	case *Histogram:
		out := make([]Sample, 0, len(m.bounds)+3)
		var cum uint64
		for i, bound := range m.bounds {
			cum += m.counts[i].Load()
			l := labels()
			l["le"] = formatFloat(bound)
			out = append(out, Sample{Name: name + "_bucket", Labels: l, Value: float64(cum), Type: kind})
		}
		cum += m.counts[len(m.bounds)].Load()
		l := labels()
		l["le"] = "+Inf"
		out = append(out, Sample{Name: name + "_bucket", Labels: l, Value: float64(cum), Type: kind})
		out = append(out, Sample{Name: name + "_sum", Labels: labels(), Value: m.Sum(), Type: kind})
		out = append(out, Sample{Name: name + "_count", Labels: labels(), Value: float64(m.Count()), Type: kind})
		return out
	}
	return nil
}

// Handler returns an http.Handler serving the registry exposition — mount
// it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}
