package shard

import (
	"strconv"

	"repro/internal/obs"
)

// routerMetrics is the route-level instrumentation: per-shard ingest
// counters plus merge-path latency/volume. Shard-engine internals
// (apply latency, queue depth, users) are registered by each engine
// under its {"shard": i} label.
type routerMetrics struct {
	ingest       []*obs.Counter
	merges       *obs.Counter
	cacheHits    *obs.Counter
	mergeSeconds *obs.Histogram
}

func (r *Router) registerMetrics(reg *obs.Registry, n int) {
	r.met.ingest = make([]*obs.Counter, n)
	for i := 0; i < n; i++ {
		r.met.ingest[i] = reg.Counter("shard_ingest_total",
			"Records routed to this shard's engine.",
			obs.Labels{"shard": strconv.Itoa(i)})
	}
	r.met.merges = reg.Counter("shard_merges_total",
		"Cross-shard analytics state merges performed.", nil)
	r.met.cacheHits = reg.Counter("shard_merge_cache_hits_total",
		"Analytics reads served from the cached merged views.", nil)
	r.met.mergeSeconds = reg.Histogram("shard_merge_seconds",
		"Latency of one cross-shard state merge (snapshot + fold + views).",
		obs.LatencyBuckets(), nil)
	reg.GaugeFunc("shard_count", "Configured shard count.", nil,
		func() float64 { return float64(n) })
	ingest := r.met.ingest
	reg.GaugeFunc("shard_ingest_skew",
		"Max/mean ratio of per-shard ingest counts; 1.0 is a perfectly balanced keyset.",
		nil, func() float64 { return ingestSkew(ingest) })
}

// ingestSkew computes max/mean over the per-shard ingest counters. It runs
// inside registry snapshots, so it only reads the counters' atomics and
// takes no locks. Before any ingest (sum 0) the skew reports 0.
func ingestSkew(ingest []*obs.Counter) float64 {
	if len(ingest) == 0 {
		return 0
	}
	var sum, max int64
	for _, c := range ingest {
		v := c.Value()
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(ingest))
	return float64(max) / mean
}
