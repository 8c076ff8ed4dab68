// Package diag is the self-diagnosis plane: an always-on runtime telemetry
// sampler that reads runtime/metrics into the obs registry (so GC pressure,
// goroutine pileups and sched latency flow into /metrics, the series TSDB
// and the exporter for free), and an anomaly-triggered bundle capturer that
// snapshots the forensic state an operator needs the moment a watch rule
// fires — goroutine stacks, a heap profile, the breached rule's series
// window, the full alert snapshot — into a bounded on-disk ring.
//
// The sampler is built to be always-on: one Sample() costs zero heap
// allocations in steady state (pinned by TestSampleZeroAlloc), so running
// it at a 5s tick in every binary is free.
package diag

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/obs"
)

// SamplerConfig parameterizes NewSampler.
type SamplerConfig struct {
	// Registry receives the runtime_* metrics; nil uses obs.Default.
	Registry *obs.Registry
	// Interval is the background sampling tick (default 5s). Start spawns
	// the ticking goroutine; tests drive Sample directly instead.
	Interval time.Duration
}

// RuntimeStats is the sampler's latest reading, the compact form consumed
// by /debug/health and bundle manifests.
type RuntimeStats struct {
	// SampledAt is when Sample last ran (zero before the first sample).
	SampledAt time.Time `json:"sampled_at"`
	// Goroutines is the live goroutine count.
	Goroutines int64 `json:"goroutines"`
	// HeapInuseBytes is the in-use heap span memory (objects + unused).
	HeapInuseBytes int64 `json:"heap_inuse_bytes"`
	// TotalBytes is all memory mapped by the Go runtime.
	TotalBytes int64 `json:"total_bytes"`
	// GCCycles is the completed GC cycle count since process start.
	GCCycles int64 `json:"gc_cycles"`
	// LastGCPauseSeconds is the most recent stop-the-world pause, at the
	// resolution of the runtime's pause histogram buckets (upper bound of
	// the newest bucket that grew).
	LastGCPauseSeconds float64 `json:"last_gc_pause_seconds"`
	// GCPauseP99Seconds is the 99th-percentile pause since process start.
	GCPauseP99Seconds float64 `json:"gc_pause_p99_seconds"`
	// GOMAXPROCS is the scheduler's processor limit.
	GOMAXPROCS int64 `json:"gomaxprocs"`
}

// quantile is one exported histogram quantile gauge.
type quantile struct {
	q float64
	g *obs.Gauge
}

// Sampler reads runtime/metrics into runtime_* registry series. Create with
// NewSampler; Start launches the ticker, or call Sample directly. Safe for
// concurrent use (Sample itself is serialized by a mutex).
type Sampler struct {
	reg      *obs.Registry
	interval time.Duration

	// Sampled values land in plain gauges/counters (not GaugeFuncs) so they
	// flow unchanged into /metrics scrapes, series-store ticks and exporter
	// snapshots without re-reading the runtime at scrape time.
	gGoroutines *obs.Gauge
	gHeapInuse  *obs.Gauge
	gTotal      *obs.Gauge
	gMaxProcs   *obs.Gauge
	gLastPause  *obs.Gauge
	cGCCycles   *obs.Counter
	cAllocBytes *obs.Counter
	pauseQ      []quantile
	schedQ      []quantile

	quit      chan struct{}
	done      chan struct{}
	startOnce sync.Once
	closeOnce sync.Once

	mu      sync.Mutex
	samples []metrics.Sample
	idx     map[string]int // runtime metric name → samples index (present only)
	prevGC  uint64
	prevAll uint64
	// prevPause mirrors the pause histogram's counts from the previous
	// sample so the newest pause can be located by bucket delta.
	prevPause []uint64
	lastAt    time.Time
}

// Runtime metric names read each sample. Names absent from the running
// runtime (version drift) are skipped gracefully — the sampler reads what
// exists rather than failing.
const (
	rmGoroutines = "/sched/goroutines:goroutines"
	rmGomaxprocs = "/sched/gomaxprocs:threads"
	rmHeapObj    = "/memory/classes/heap/objects:bytes"
	rmHeapUnused = "/memory/classes/heap/unused:bytes"
	rmTotal      = "/memory/classes/total:bytes"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmGCPauses   = "/gc/pauses:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
)

// NewSampler builds a sampler, registers the runtime_* series, and takes an
// initial sample so gauges are never zero-valued placeholders.
func NewSampler(cfg SamplerConfig) *Sampler {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = 5 * time.Second
	}
	s := &Sampler{
		reg:      reg,
		interval: interval,
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		idx:      make(map[string]int),
		gGoroutines: reg.Gauge("runtime_goroutines",
			"Live goroutine count.", nil),
		gHeapInuse: reg.Gauge("runtime_heap_inuse_bytes",
			"In-use heap span memory (live objects plus unused span space).", nil),
		gTotal: reg.Gauge("runtime_total_bytes",
			"All memory mapped by the Go runtime.", nil),
		gMaxProcs: reg.Gauge("runtime_gomaxprocs",
			"Scheduler processor limit (GOMAXPROCS).", nil),
		gLastPause: reg.Gauge("runtime_gc_last_pause_seconds",
			"Most recent GC stop-the-world pause (pause-histogram bucket resolution).", nil),
		cGCCycles: reg.Counter("runtime_gc_cycles_total",
			"Completed GC cycles.", nil),
		cAllocBytes: reg.Counter("runtime_alloc_bytes_total",
			"Cumulative bytes allocated on the heap.", nil),
	}
	for _, q := range []float64{0.50, 0.90, 0.99} {
		s.pauseQ = append(s.pauseQ, quantile{q, reg.Gauge("runtime_gc_pause_seconds",
			"GC stop-the-world pause quantiles since process start.",
			obs.Labels{"q": formatQ(q)})})
		s.schedQ = append(s.schedQ, quantile{q, reg.Gauge("runtime_sched_latency_seconds",
			"Goroutine scheduling latency quantiles since process start.",
			obs.Labels{"q": formatQ(q)})})
	}

	// Bind only the metric names this runtime actually exports.
	known := make(map[string]struct{})
	for _, d := range metrics.All() {
		known[d.Name] = struct{}{}
	}
	for _, name := range []string{
		rmGoroutines, rmGomaxprocs, rmHeapObj, rmHeapUnused, rmTotal,
		rmGCCycles, rmAllocBytes, rmGCPauses, rmSchedLat,
	} {
		if _, ok := known[name]; !ok {
			continue
		}
		s.idx[name] = len(s.samples)
		s.samples = append(s.samples, metrics.Sample{Name: name})
	}
	s.Sample()
	return s
}

func formatQ(q float64) string {
	switch q {
	case 0.50:
		return "0.50"
	case 0.90:
		return "0.90"
	case 0.99:
		return "0.99"
	}
	return "0"
}

// Start launches the background sampling goroutine. Idempotent.
func (s *Sampler) Start() {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			t := time.NewTicker(s.interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.Sample()
				case <-s.quit:
					return
				}
			}
		}()
	})
}

// Close stops the sampling goroutine. Safe without a prior Start and when
// called more than once.
func (s *Sampler) Close() {
	s.closeOnce.Do(func() { close(s.quit) })
	s.startOnce.Do(func() { close(s.done) })
	<-s.done
}

// Sample reads the runtime once and updates every runtime_* series. Zero
// heap allocations in steady state: the samples slice (and the histogram
// buffers inside it) are reused across calls.
func (s *Sampler) Sample() {
	s.mu.Lock()
	defer s.mu.Unlock()
	metrics.Read(s.samples)
	if i, ok := s.idx[rmGoroutines]; ok {
		s.gGoroutines.Set(float64(s.samples[i].Value.Uint64()))
	}
	if i, ok := s.idx[rmGomaxprocs]; ok {
		s.gMaxProcs.Set(float64(s.samples[i].Value.Uint64()))
	}
	var heap uint64
	if i, ok := s.idx[rmHeapObj]; ok {
		heap += s.samples[i].Value.Uint64()
	}
	if i, ok := s.idx[rmHeapUnused]; ok {
		heap += s.samples[i].Value.Uint64()
	}
	s.gHeapInuse.Set(float64(heap))
	if i, ok := s.idx[rmTotal]; ok {
		s.gTotal.Set(float64(s.samples[i].Value.Uint64()))
	}
	if i, ok := s.idx[rmGCCycles]; ok {
		v := s.samples[i].Value.Uint64()
		s.cGCCycles.Add(int64(v - s.prevGC))
		s.prevGC = v
	}
	if i, ok := s.idx[rmAllocBytes]; ok {
		v := s.samples[i].Value.Uint64()
		s.cAllocBytes.Add(int64(v - s.prevAll))
		s.prevAll = v
	}
	if i, ok := s.idx[rmGCPauses]; ok {
		h := s.samples[i].Value.Float64Histogram()
		for _, q := range s.pauseQ {
			q.g.Set(histQuantile(h, q.q))
		}
		if p, ok := newestBucketBound(h, &s.prevPause); ok {
			s.gLastPause.Set(p)
		}
	}
	if i, ok := s.idx[rmSchedLat]; ok {
		h := s.samples[i].Value.Float64Histogram()
		for _, q := range s.schedQ {
			q.g.Set(histQuantile(h, q.q))
		}
	}
	s.lastAt = time.Now()
}

// Stats returns the latest reading in the compact health/manifest shape.
func (s *Sampler) Stats() RuntimeStats {
	s.mu.Lock()
	at := s.lastAt
	s.mu.Unlock()
	var p99 float64
	for _, q := range s.pauseQ {
		if q.q == 0.99 {
			p99 = q.g.Value()
		}
	}
	return RuntimeStats{
		SampledAt:          at,
		Goroutines:         int64(s.gGoroutines.Value()),
		HeapInuseBytes:     int64(s.gHeapInuse.Value()),
		TotalBytes:         int64(s.gTotal.Value()),
		GCCycles:           s.cGCCycles.Value(),
		LastGCPauseSeconds: s.gLastPause.Value(),
		GCPauseP99Seconds:  p99,
		GOMAXPROCS:         int64(s.gMaxProcs.Value()),
	}
}

// histQuantile reads quantile q out of a cumulative runtime histogram:
// the upper bound of the bucket where the running count crosses q·total.
// Allocation-free.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	thresh := uint64(q * float64(total))
	if thresh >= total {
		thresh = total - 1
	}
	var run uint64
	for i, c := range h.Counts {
		run += c
		if run > thresh {
			return bucketUpper(h, i)
		}
	}
	return bucketUpper(h, len(h.Counts)-1)
}

// bucketUpper is bucket i's finite upper bound (falls back to the lower
// bound on the +Inf tail bucket).
func bucketUpper(h *metrics.Float64Histogram, i int) float64 {
	ub := h.Buckets[i+1]
	if math.IsInf(ub, 1) {
		ub = h.Buckets[i]
	}
	if math.IsInf(ub, -1) {
		ub = 0
	}
	return ub
}

// newestBucketBound locates the highest bucket whose count grew since the
// previous call and returns its upper bound — "the most recent observation,
// at bucket resolution". prev is the caller-owned previous-counts buffer,
// resized only when the runtime changes its bucket layout.
func newestBucketBound(h *metrics.Float64Histogram, prev *[]uint64) (float64, bool) {
	if len(*prev) != len(h.Counts) {
		*prev = make([]uint64, len(h.Counts))
		copy(*prev, h.Counts)
		return 0, false // first sight: no delta to attribute
	}
	bound, found := 0.0, false
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] > (*prev)[i] {
			bound, found = bucketUpper(h, i), true
			break
		}
	}
	copy(*prev, h.Counts)
	return bound, found
}
