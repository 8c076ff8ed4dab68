package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
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

// TestRouterStepsMatchSingleEngine applies one random stream to a single
// engine and to routers in steps of random size, some owned by one shard
// and some spread over all. After every step the router's three payloads
// and RefreshAMI, read in a random order, must encode byte for byte as the
// single engine's: every intermediate version of the cached views is
// checked, not only the last.
func TestRouterStepsMatchSingleEngine(t *testing.T) {
	const users = 40
	vecs := []string{"DC", "FFT", "Hybrid", "Custom Signal", "Merged Signals", "AM", "FM", "aux"}
	for _, shards := range []int{1, 3, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(shards)))
			eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
			defer eng.Close()
			r, err := NewRouter(Config{
				Shards: shards,
				Engine: streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			record := func(u int) storage.Record {
				return storage.Record{UserID: fmt.Sprintf("u%02d", u), Vector: vecs[rng.Intn(len(vecs))],
					Hash: fmt.Sprintf("h%d", rng.Intn(9)), UserAgent: fmt.Sprintf("UA-%d", rng.Intn(3))}
			}
			for step := 0; step < 60; step++ {
				var batch []storage.Record
				if rng.Intn(3) == 0 {
					// One user's records: a step only its shard sees.
					u := rng.Intn(users)
					for n := 1 + rng.Intn(5); n > 0; n-- {
						batch = append(batch, record(u))
					}
				} else {
					for n := 1 + rng.Intn(30); n > 0; n-- {
						batch = append(batch, record(rng.Intn(users)))
					}
				}
				eng.Apply(batch)
				if rng.Intn(2) == 0 {
					r.Apply(batch)
				} else {
					r.EnqueueContext(context.Background(), batch)
					if err := r.Sync(); err != nil {
						t.Fatal(err)
					}
				}
				reads := []struct {
					name           string
					single, routed func() any
				}{
					{"diversity", func() any { return eng.Diversity() }, func() any { return r.Diversity() }},
					{"clusters", func() any { return eng.Clusters() }, func() any { return r.Clusters() }},
					{"stability", func() any { return eng.Stability() }, func() any { return r.Stability() }},
					{"ami", func() any { return eng.RefreshAMI() }, func() any { return r.RefreshAMI() }},
				}
				rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
				for _, rd := range reads {
					want, err := json.Marshal(rd.single())
					if err != nil {
						t.Fatal(err)
					}
					got, err := json.Marshal(rd.routed())
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("step %d %s:\nrouter: %s\nsingle: %s", step, rd.name, got, want)
					}
				}
			}
		})
	}
}

// TestRouterUnchangedVersionDoesNotMerge: once a version's views are
// built, the other payloads and RefreshAMI at that version come from the
// cache, and a RefreshAMI at a new version merges once for every read
// after it. A step one shard alone sees is a new version too.
func TestRouterUnchangedVersionDoesNotMerge(t *testing.T) {
	r, err := NewRouter(Config{
		Shards: 4,
		Engine: streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var recs []storage.Record
	for u := 0; u < 50; u++ {
		recs = append(recs, storage.Record{UserID: fmt.Sprintf("u%d", u), Vector: "DC", Hash: fmt.Sprintf("h%d", u%7)})
	}
	r.Apply(recs)
	check := func(when string, merges, hits int64) {
		t.Helper()
		if m, h := r.met.merges.Value(), r.met.cacheHits.Value(); m != merges || h != hits {
			t.Errorf("%s: %d merges and %d cache hits, want %d and %d", when, m, h, merges, hits)
		}
	}
	r.Diversity()
	check("first read", 1, 0)
	r.Clusters()
	r.Stability()
	r.RefreshAMI()
	r.Diversity()
	check("reads and a refresh at the same version", 1, 4)

	r.Apply(recs[:1]) // one user: one shard's count moves
	r.RefreshAMI()
	check("refresh at a new version", 2, 4)
	r.Stability()
	r.Clusters()
	r.RefreshAMI()
	check("reads after the refresh", 2, 7)
}
