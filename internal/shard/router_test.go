package shard

import (
	"context"
	"fmt"
	"reflect"
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
				r.EnqueueContext(context.Background(), batch)
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

// TestRouterConcurrentReads: concurrent reads share the router's cached
// merged state, so reading it must write nothing — under -race, a write
// two readers share is a data race. Every read must also serve the lone
// read's payload from the one cached merge.
func TestRouterConcurrentReads(t *testing.T) {
	r, err := NewRouter(Config{
		Shards: 3,
		Engine: streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var recs []storage.Record
	for u := 0; u < 120; u++ {
		for _, v := range []string{"DC", "FFT", "Hybrid"} {
			recs = append(recs, storage.Record{UserID: fmt.Sprintf("u%d", u),
				Vector: v, Hash: fmt.Sprintf("%s-h%d", v, (u*7)%17)})
		}
	}
	r.Apply(recs)
	div, ami := r.Diversity(), r.RefreshAMI()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if got := r.Diversity(); !reflect.DeepEqual(got, div) {
					t.Errorf("concurrent Diversity = %+v, want %+v", got, div)
				}
				if got := r.RefreshAMI(); !reflect.DeepEqual(got, ami) {
					t.Errorf("concurrent RefreshAMI = %+v, want %+v", got, ami)
				}
			}
		}()
	}
	wg.Wait()
	if merges := r.met.merges.Value(); merges != 1 {
		t.Errorf("%d merges, want 1: every read after the first must hit the cache", merges)
	}
}
