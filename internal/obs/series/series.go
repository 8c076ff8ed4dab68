// Package series is the render plane's flight recorder: a dependency-free
// in-process time-series store that snapshots every metric of an obs
// registry on a fixed tick into bounded ring buffers. Where /metrics is a
// point-in-time scrape, the series store answers "what did this counter do
// over the last ten minutes?" — the question the query route's dashboards
// and the diag bundles' metric windows ask. Memory is bounded three ways: a
// fixed point capacity per series, a cap on the total series count, and
// histogram bucket samples excluded by default (the highest-cardinality
// expansion of a scrape).
package series

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config parameterizes New.
type Config struct {
	// Registry is the metrics source; nil uses obs.Default.
	Registry *obs.Registry
	// Interval is the snapshot tick (default 5s). Start spawns the
	// ticking goroutine; tests drive Tick directly instead.
	Interval time.Duration
	// Capacity bounds retained points per series (default 720 — one hour
	// at the default tick). The ring overwrites oldest-first.
	Capacity int
	// MaxSeries bounds distinct series (default 4096). New series beyond
	// the cap are dropped and counted on series_store_dropped_total.
	MaxSeries int
	// Now supplies timestamps (tests override); nil means time.Now.
	Now func() time.Time
}

// Point is one retained observation.
type Point struct {
	// T is the snapshot time in unix milliseconds.
	T int64 `json:"t"`
	// V is the sample value at T.
	V float64 `json:"v"`
}

// ring is one series' bounded history.
type ring struct {
	labels map[string]string
	pts    []Point // capacity-sized once full
	head   int     // index of oldest point when full
	full   bool
}

func (rg *ring) append(p Point, capacity int) {
	if !rg.full {
		rg.pts = append(rg.pts, p)
		if len(rg.pts) == capacity {
			rg.full = true
		}
		return
	}
	rg.pts[rg.head] = p
	rg.head = (rg.head + 1) % len(rg.pts)
}

// points returns the ring's contents oldest-first.
func (rg *ring) points() []Point {
	out := make([]Point, 0, len(rg.pts))
	if rg.full {
		out = append(out, rg.pts[rg.head:]...)
		out = append(out, rg.pts[:rg.head]...)
		return out
	}
	return append(out, rg.pts...)
}

// metricState groups every labeled series of one metric name.
type metricState struct {
	typ   string
	rings map[string]*ring // label key → ring
	order []string         // label keys in first-seen order
}

// Store is the in-process TSDB. All methods are safe for concurrent use;
// Tick and Query may race freely with metric writers (registry metrics are
// lock-free) and with each other.
type Store struct {
	reg       *obs.Registry
	interval  time.Duration
	capacity  int
	maxSeries int
	now       func() time.Time

	ticks   *obs.Counter
	dropped *obs.Counter

	quit      chan struct{}
	done      chan struct{}
	startOnce sync.Once
	closeOnce sync.Once

	mu      sync.RWMutex
	metrics map[string]*metricState
	names   []string // sorted metric names (catalog order)
	nSeries int
}

// New builds a Store; call Start to begin ticking (or drive Tick manually).
func New(cfg Config) *Store {
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 720
	}
	if cfg.MaxSeries <= 0 {
		cfg.MaxSeries = 4096
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Store{
		reg:       cfg.Registry,
		interval:  cfg.Interval,
		capacity:  cfg.Capacity,
		maxSeries: cfg.MaxSeries,
		now:       cfg.Now,
		ticks: cfg.Registry.Counter("series_store_ticks_total",
			"Registry snapshots taken by the series store.", nil),
		dropped: cfg.Registry.Counter("series_store_dropped_total",
			"Samples dropped by the series store's series-count bound.", nil),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
		metrics: make(map[string]*metricState),
	}
}

// Start launches the background ticking goroutine. Idempotent.
func (s *Store) Start() {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			t := time.NewTicker(s.interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.Tick()
				case <-s.quit:
					return
				}
			}
		}()
	})
}

// Close stops the ticking goroutine. Safe to call more than once, and
// without a prior Start.
func (s *Store) Close() {
	s.closeOnce.Do(func() { close(s.quit) })
	s.startOnce.Do(func() { close(s.done) }) // never started: nothing to wait for
	<-s.done
}

// Interval returns the configured snapshot tick.
func (s *Store) Interval() time.Duration { return s.interval }

// labelKey renders labels deterministically (the registry's exposition
// label-block convention) for use as a map key.
func labelKey(labels map[string]string) string {
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
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	return b.String()
}

// Tick takes one registry snapshot and appends every sample to its ring.
// Counters are stored as their raw cumulative values — deltas are computed
// at query time (delta-aware for resets), so a late subscriber still sees
// the full retained history.
func (s *Store) Tick() {
	samples := s.reg.Snapshot()
	t := s.now().UnixMilli()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range samples {
		sm := &samples[i]
		// Histogram _bucket samples are not retained: every bucket would
		// be its own series, and _sum/_count carry the latency/size signal
		// the time-series consumers need.
		if strings.HasSuffix(sm.Name, "_bucket") {
			if _, isHist := sm.Labels["le"]; isHist {
				continue
			}
		}
		ms, ok := s.metrics[sm.Name]
		if !ok {
			ms = &metricState{typ: sm.Type, rings: make(map[string]*ring)}
			s.metrics[sm.Name] = ms
			s.names = append(s.names, sm.Name)
			sort.Strings(s.names)
		}
		key := labelKey(sm.Labels)
		rg, ok := ms.rings[key]
		if !ok {
			if s.nSeries >= s.maxSeries {
				s.dropped.Inc()
				continue
			}
			rg = &ring{labels: sm.Labels}
			ms.rings[key] = rg
			ms.order = append(ms.order, key)
			s.nSeries++
		}
		rg.append(Point{T: t, V: sm.Value}, s.capacity)
	}
	s.ticks.Inc()
}

// Series is one labeled series' retained points, oldest first.
type Series struct {
	Labels map[string]string `json:"labels,omitempty"`
	Points []Point           `json:"points"`
}

// QueryResult is the payload of one metric query.
type QueryResult struct {
	// Metric echoes the queried name.
	Metric string `json:"metric"`
	// Type is the metric kind ("counter", "gauge", "histogram").
	Type string `json:"type"`
	// Delta reports whether Points hold per-tick deltas (counters only).
	Delta bool `json:"delta,omitempty"`
	// Series lists every labeled series, in first-seen order.
	Series []Series `json:"series"`
}

// cumulative reports whether a metric type's values are monotonic — the
// types whose deltas (not levels) are the interesting signal.
func cumulative(typ string) bool { return typ == "counter" || typ == "histogram" }

// Query returns metric's retained series, restricted to points at or after
// since (zero time = everything). With delta=true and a cumulative metric,
// points become per-tick increases; a counter reset (value decreasing)
// yields the post-reset value, the standard rate-reconstruction rule. The
// second return is false when the metric has never been snapshotted.
func (s *Store) Query(metric string, since time.Time, delta bool) (QueryResult, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ms, ok := s.metrics[metric]
	if !ok {
		return QueryResult{}, false
	}
	res := QueryResult{
		Metric: metric,
		Type:   ms.typ,
		Delta:  delta && cumulative(ms.typ),
		Series: make([]Series, 0, len(ms.order)),
	}
	cut := int64(0)
	if !since.IsZero() {
		cut = since.UnixMilli()
	}
	for _, key := range ms.order {
		pts := ms.rings[key].points()
		if res.Delta {
			pts = deltas(pts)
		}
		if cut > 0 {
			i := sort.Search(len(pts), func(i int) bool { return pts[i].T >= cut })
			pts = pts[i:]
		}
		res.Series = append(res.Series, Series{Labels: ms.rings[key].labels, Points: pts})
	}
	return res, true
}

// deltas converts cumulative points into per-tick increases. The first
// point has no predecessor and is dropped; a decrease means the underlying
// counter reset, so the new value itself is the best lower bound on the
// increase.
func deltas(pts []Point) []Point {
	if len(pts) < 2 {
		return []Point{}
	}
	out := make([]Point, 0, len(pts)-1)
	for i := 1; i < len(pts); i++ {
		d := pts[i].V - pts[i-1].V
		if d < 0 {
			d = pts[i].V
		}
		out = append(out, Point{T: pts[i].T, V: d})
	}
	return out
}

// CatalogEntry summarizes one retained metric for the catalog endpoint.
type CatalogEntry struct {
	Metric string `json:"metric"`
	Type   string `json:"type"`
	// Series is the number of labeled series retained for this metric.
	Series int `json:"series"`
	// Points is the total retained point count across those series.
	Points int `json:"points"`
	// OldestT/NewestT bound the retained window (unix milliseconds; zero
	// when no points are retained yet).
	OldestT int64 `json:"oldest_t,omitempty"`
	NewestT int64 `json:"newest_t,omitempty"`
}

// Catalog lists every retained metric in name order — the compact map a
// consumer reads before issuing queries.
func (s *Store) Catalog() []CatalogEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]CatalogEntry, 0, len(s.names))
	for _, name := range s.names {
		ms := s.metrics[name]
		e := CatalogEntry{Metric: name, Type: ms.typ, Series: len(ms.rings)}
		for _, rg := range ms.rings {
			pts := rg.points()
			e.Points += len(pts)
			if len(pts) > 0 {
				if e.OldestT == 0 || pts[0].T < e.OldestT {
					e.OldestT = pts[0].T
				}
				if pts[len(pts)-1].T > e.NewestT {
					e.NewestT = pts[len(pts)-1].T
				}
			}
		}
		out = append(out, e)
	}
	return out
}
