package shard_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/streaming"
)

// The sharded plane's cost model, at the paper's population scale: routing
// one record must stay within a small constant of a single engine's apply,
// and the merged-snapshot read path — the price of sharding — must remain
// cheap enough to serve /api/v1/analytics/* interactively. make bench-shard
// runs these and emits BENCH_shard.json via cmd/benchjson.

func benchRouter(b *testing.B, n int) *shard.Router {
	b.Helper()
	rt, err := shard.NewRouter(shard.Config{
		Shards: n,
		Engine: streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { rt.Close() })
	return rt
}

// BenchmarkShardIngest measures the amortized cost of routing one record
// into a router already holding the full 2093-user population.
func BenchmarkShardIngest(b *testing.B) {
	recs := paperRecords(b)
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			rt := benchRouter(b, n)
			rt.Bootstrap(recs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Apply(recs[i%len(recs) : i%len(recs)+1])
			}
		})
	}
}

// BenchmarkShardMergedSnapshot measures the cold merged read: every
// iteration applies one record first, so the router's merged-state cache
// misses and the full cross-shard fold runs. This is the sharding tax on
// the analytics read path.
func BenchmarkShardMergedSnapshot(b *testing.B) {
	recs := paperRecords(b)
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			rt := benchRouter(b, n)
			rt.Bootstrap(recs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rt.Apply(recs[i%len(recs) : i%len(recs)+1])
				rt.Sync()
				_ = rt.Diversity()
			}
		})
	}
}

// BenchmarkShardCachedSnapshot measures the warm read: no writes between
// reads, so snapshots come from the cached merged state and the fold is
// skipped. This is what steady read traffic costs.
func BenchmarkShardCachedSnapshot(b *testing.B) {
	recs := paperRecords(b)
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			rt := benchRouter(b, n)
			rt.Bootstrap(recs)
			_ = rt.Diversity() // prime the cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = rt.Diversity()
			}
		})
	}
}

// BenchmarkStoresOpenRecoverAll measures a sharded restart's storage half
// over ~20k persisted records on 4 shards: OpenStores (one walk of each
// file, shards concurrently), Recover (nothing left to re-read) and one
// All (every shard decoded concurrently, then merged by Seq).
func BenchmarkStoresOpenRecoverAll(b *testing.B) {
	recs := paperRecords(b)
	recs = recs[:min(len(recs), 20000)]
	base := filepath.Join(b.TempDir(), "fp.ndjson")
	ss, err := shard.OpenStores(base, 4, storage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for next := 0; next < len(recs); next += 210 {
		if err := ss.Append(recs[next:min(next+210, len(recs))]...); err != nil {
			b.Fatal(err)
		}
	}
	if err := ss.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss, err := shard.OpenStores(base, 4, storage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ss.Recover(); err != nil {
			b.Fatal(err)
		}
		all, err := ss.All()
		if err != nil {
			b.Fatal(err)
		}
		if len(all) != len(recs) {
			b.Fatalf("All returned %d records, want %d", len(all), len(recs))
		}
		ss.Close()
	}
}
