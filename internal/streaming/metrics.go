package streaming

import (
	"repro/internal/obs"
	"repro/internal/vectors"
)

// engineMetrics holds the engine's instrumentation on an obs registry.
type engineMetrics struct {
	recordsApplied *obs.Counter
	batchesApplied *obs.Counter
	queueWaits     *obs.Counter
	amiRefreshes   *obs.Counter
	applySeconds   *obs.Histogram
	amiSeconds     *obs.Histogram
}

// lbl merges Config.MetricLabels into a metric's own labels so N engines
// sharing one registry (the sharded router) register distinct series
// instead of clobbering each other's gauges.
func (e *Engine) lbl(extra obs.Labels) obs.Labels {
	if len(e.metLabels) == 0 {
		return extra
	}
	out := make(obs.Labels, len(e.metLabels)+len(extra))
	for k, v := range e.metLabels {
		out[k] = v
	}
	for k, v := range extra {
		out[k] = v
	}
	return out
}

// registerMetrics creates the engine's counters/histograms and installs
// gauge closures reading live state. Gauge reads take the engine's read
// lock, so a /metrics scrape observes a consistent position.
func (e *Engine) registerMetrics(reg *obs.Registry) {
	e.met = engineMetrics{
		recordsApplied: reg.Counter("streaming_records_applied_total",
			"Collection records folded into the streaming engine.", e.lbl(nil)),
		batchesApplied: reg.Counter("streaming_batches_applied_total",
			"Update-queue batches applied by the streaming engine.", e.lbl(nil)),
		queueWaits: reg.Counter("streaming_queue_full_waits_total",
			"Enqueue calls that blocked on a full update queue (backpressure).", e.lbl(nil)),
		amiRefreshes: reg.Counter("streaming_ami_refreshes_total",
			"Pairwise-AMI snapshot recomputations.", e.lbl(nil)),
		applySeconds: reg.Histogram("streaming_apply_seconds",
			"Latency of applying one update batch.", obs.LatencyBuckets(), e.lbl(nil)),
		amiSeconds: reg.Histogram("streaming_ami_refresh_seconds",
			"Latency of one pairwise-AMI snapshot refresh.", obs.LatencyBuckets(), e.lbl(nil)),
	}
	reg.GaugeFunc("streaming_queue_depth",
		"Update batches waiting in the engine queue.", e.lbl(nil),
		func() float64 { return float64(len(e.queue)) })
	reg.GaugeFunc("streaming_users",
		"Users known to the streaming engine.", e.lbl(nil),
		func() float64 {
			e.mu.RLock()
			defer e.mu.RUnlock()
			return float64(len(e.st.Users))
		})
	for i, v := range vectors.All {
		g := e.st.Vecs[i].Graph
		reg.GaugeFunc("streaming_clusters",
			"Collated fingerprint clusters per vector.",
			e.lbl(obs.Labels{"vector": v.String()}),
			func() float64 {
				e.mu.RLock()
				defer e.mu.RUnlock()
				return float64(g.NumClusters())
			})
	}
}
