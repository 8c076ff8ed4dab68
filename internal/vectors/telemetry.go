package vectors

import (
	"time"

	"repro/internal/obs"
)

// Per-vector render telemetry on the shared registry: how many render
// passes each vector ran, how long a pass takes end to end (graph build +
// quanta + every capture's hash), and how the memoization cache behaves.
// Label cardinality is bounded by the vector set (seven names).
var (
	mCacheHits = obs.Default.Counter("vectors_cache_hits_total",
		"memoized fingerprint renders served from cache", nil)
	mCacheMisses = obs.Default.Counter("vectors_cache_misses_total",
		"fingerprint renders that had to run the engine", nil)
)

func init() {
	// Process-wide hit ratio across every Cache instance: the fraction of
	// lookups that avoided running the engine. Registered once at package
	// init, so sharing one study.Config.RenderCache across campaigns (or
	// constructing many Caches) never duplicates the series.
	obs.Default.GaugeFunc("vectors_cache_hit_ratio",
		"fraction of cache lookups served without rendering", nil,
		func() float64 {
			return hitRatio(mCacheHits.Value(), mCacheMisses.Value())
		})
}

// hitRatio is served/(served+misses), defined as 0 — not NaN — before the
// first lookup so a fresh process scrapes clean and dashboards don't gap.
func hitRatio(served, misses int64) float64 {
	total := served + misses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

func renderObserved(id ID, elapsed time.Duration) {
	labels := obs.Labels{"vector": id.String()}
	obs.Default.Counter("vectors_renders_total",
		"completed render passes (one or more captures each)", labels).Inc()
	obs.Default.Histogram("vectors_render_duration_seconds",
		"wall time of one render pass", obs.LatencyBuckets(), labels).
		Observe(elapsed.Seconds())
}

// timeRender wraps a render pass with duration telemetry.
func timeRender(id ID, fn func() ([]Fingerprint, error)) ([]Fingerprint, error) {
	start := time.Now()
	fps, err := fn()
	if err == nil {
		renderObserved(id, time.Since(start))
	}
	return fps, err
}
