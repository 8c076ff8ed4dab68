package verify

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/storage"
	"repro/internal/vectors"
)

// benchEngine enrolls a synthetic population: users users × all vectors ×
// hist distinct hashes each (a history that has already churned).
func benchEngine(users, hist int) (*Engine, []Sample) {
	e := New(Config{})
	for u := 0; u < users; u++ {
		id := fmt.Sprintf("u%05d", u)
		for _, v := range vectors.All {
			for h := 0; h < hist; h++ {
				e.EnrollHashes(id, v, fmt.Sprintf("%02d%04d%02d", v, u, h))
			}
		}
	}
	probe := make([]Sample, 0, len(vectors.All))
	for _, v := range vectors.All {
		probe = append(probe, Sample{Vector: v, Hash: fmt.Sprintf("%02d%04d%02d", v, users/2, 0)})
	}
	return e, probe
}

// BenchmarkVerifyDecision is the serving-path decision latency the nightly
// workflow tracks in BENCH_verify.json: one full seven-vector verification
// against a 2093-user enrolled population.
func BenchmarkVerifyDecision(b *testing.B) {
	e, probe := benchEngine(2093, 3)
	user := fmt.Sprintf("u%05d", 2093/2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Verify(user, probe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyDecisionParallel is the same decision under concurrent
// load — the RWMutex read path must scale.
func BenchmarkVerifyDecisionParallel(b *testing.B) {
	e, probe := benchEngine(2093, 3)
	user := fmt.Sprintf("u%05d", 2093/2)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := e.Verify(user, probe); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVerifyEnroll prices enrollment and the verify plane's memory:
// every iteration enrolls 2093 users × 7 vectors × 3 hashes into a fresh
// engine. heap-B/user is the live heap the engine holds per enrolled user,
// excluding the user-id and hash strings, which the records own.
func BenchmarkVerifyEnroll(b *testing.B) {
	const users, hist = 2093, 3
	recs := make([]storage.Record, 0, users*len(vectors.All)*hist)
	for u := 0; u < users; u++ {
		id := fmt.Sprintf("u%05d", u)
		for _, v := range vectors.All {
			for h := 0; h < hist; h++ {
				recs = append(recs, storage.Record{UserID: id, Vector: v.String(), Hash: fmt.Sprintf("%02d%04d%02d", v, u, h)})
			}
		}
	}
	var ms runtime.MemStats
	var held float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		b.StartTimer()
		e := New(Config{})
		e.Enroll(recs)
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		held += float64(ms.HeapAlloc) - float64(before)
		runtime.KeepAlive(e)
		b.StartTimer()
	}
	b.ReportMetric(held/float64(b.N)/users, "heap-B/user")
}
