package shard_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/verify"
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

// BenchmarkShardLiveHeap prices what a served analytics plane holds per
// user at rest: a router bootstraps the 2093-user fixture from records
// that each carry their own copies of their strings, as decoded ones do,
// serves one read of each payload and one RefreshAMI, and the records are
// dropped before the heap is read. heap-B/user is then everything the
// router keeps per user: the shard engines' state, the plane's interner,
// the routing ledger and the cached read payloads.
func BenchmarkShardLiveHeap(b *testing.B) {
	fixture := paperRecords(b)
	users := map[string]bool{}
	for _, r := range fixture {
		users[r.UserID] = true
	}
	for _, n := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			var ms runtime.MemStats
			var held float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				before := ms.HeapAlloc
				recs := make([]storage.Record, len(fixture))
				for j, r := range fixture {
					r.UserID, r.Hash, r.UserAgent = strings.Clone(r.UserID), strings.Clone(r.Hash), strings.Clone(r.UserAgent)
					if r.Surfaces != nil {
						surfs := make(map[string]string, len(r.Surfaces))
						for k, v := range r.Surfaces {
							surfs[k] = strings.Clone(v)
						}
						r.Surfaces = surfs
					}
					recs[j] = r
				}
				b.StartTimer()
				rt, err := shard.NewRouter(shard.Config{
					Shards: n,
					Engine: streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1},
				})
				if err != nil {
					b.Fatal(err)
				}
				rt.Bootstrap(recs)
				_, _, _ = rt.Diversity(), rt.Clusters(), rt.Stability()
				rt.RefreshAMI()
				b.StopTimer()
				recs = nil
				runtime.GC()
				runtime.ReadMemStats(&ms)
				held += float64(ms.HeapAlloc) - float64(before)
				// Closed only once measured, so no router outlives its
				// iteration.
				rt.Close()
				b.StartTimer()
			}
			b.ReportMetric(held/float64(b.N)/float64(len(users)), "heap-B/user")
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

// BenchmarkShardRestart measures a four-shard server's restart over the
// 2093-user fixture, the layers of cmd/fpbench auth's setup_s: OpenStores,
// Recover, All, Router.Bootstrap, All again and Verifiers.Enroll.
func BenchmarkShardRestart(b *testing.B) {
	const shards = 4
	recs := paperRecords(b)
	base := filepath.Join(b.TempDir(), "fp.ndjson")
	ss, err := shard.OpenStores(base, shards, storage.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for next := 0; next < len(recs); next += 4096 {
		if err := ss.Append(recs[next:min(next+4096, len(recs))]...); err != nil {
			b.Fatal(err)
		}
	}
	if err := ss.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ss, err := shard.OpenStores(base, shards, storage.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ss.Recover(); err != nil {
			b.Fatal(err)
		}
		history, err := ss.All()
		if err != nil {
			b.Fatal(err)
		}
		rt, err := shard.NewRouter(shard.Config{
			Shards: shards,
			Engine: streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1},
		})
		if err != nil {
			b.Fatal(err)
		}
		rt.Bootstrap(history)
		if history, err = ss.All(); err != nil {
			b.Fatal(err)
		}
		vs, err := shard.NewVerifiers(shards, verify.Config{Registry: obs.NewRegistry()})
		if err != nil {
			b.Fatal(err)
		}
		vs.Enroll(history)
		if got := vs.Stats().Records; got != int64(len(recs)) {
			b.Fatalf("enrolled %d records, want %d", got, len(recs))
		}
		rt.Close()
		ss.Close()
	}
}
