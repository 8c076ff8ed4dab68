package shard

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/streaming"
)

// TestRouterAutoRefreshOneInFlight: concurrent enqueues keep crossing the
// refresh interval while a refresh runs; with at most one auto refresh in
// flight, a run refreshes no more often than once per interval of records.
func TestRouterAutoRefreshOneInFlight(t *testing.T) {
	const every, writers, batches, size = 512, 6, 60, 21
	r, err := NewRouter(Config{
		Shards: 4,
		Engine: streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: every},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]storage.Record, size)
				for i := range batch {
					batch[i] = storage.Record{UserID: fmt.Sprintf("w%d-u%d", w, (b*size+i)%97),
						Vector: "DC", Hash: fmt.Sprintf("h%d", i%5)}
				}
				r.Enqueue(batch)
			}
		}(w)
	}
	wg.Wait()
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); r.refreshing.Load(); {
		if time.Now().After(deadline) {
			t.Fatal("auto refresh still in flight after 10s")
		}
		time.Sleep(time.Millisecond)
	}
	const records = writers * batches * size
	// Every RefreshAMI reads the merged state once: a merge or a cache hit.
	refreshes := r.met.merges.Value() + r.met.cacheHits.Value()
	if limit := int64((records + every - 1) / every); refreshes > limit || refreshes == 0 {
		t.Errorf("%d auto refreshes over %d records, want 1..%d", refreshes, records, limit)
	}
}
