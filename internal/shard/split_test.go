package shard

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/vectors"
	"repro/internal/verify"
)

// TestSplit: each shard's group holds exactly the records Of assigns it,
// in stream order, at a capacity equal to its length; a batch one shard
// owns comes back as the same slice, and the input is never modified.
func TestSplit(t *testing.T) {
	var stream []storage.Record
	for i := 0; i < 90; i++ {
		// Runs of one user's records, some users returning later.
		user := fmt.Sprintf("u%d", (i/3)%17)
		stream = append(stream, storage.Record{UserID: user, Vector: "DC", Hash: fmt.Sprintf("h%d", i)})
	}
	orig := append([]storage.Record(nil), stream...)
	for _, n := range []int{1, 2, 3, 4, 16} {
		groups := split(stream, n)
		if len(groups) != n {
			t.Fatalf("n=%d: %d groups", n, len(groups))
		}
		for sh, g := range groups {
			var want []storage.Record
			for _, r := range stream {
				if Of(r.UserID, n) == sh {
					want = append(want, r)
				}
			}
			if !reflect.DeepEqual(g, want) {
				t.Errorf("n=%d shard %d: group %v, want %v", n, sh, g, want)
			}
			if len(g) < len(stream) && cap(g) != len(g) {
				t.Errorf("n=%d shard %d: group of %d records has capacity %d", n, sh, len(g), cap(g))
			}
		}
		if !reflect.DeepEqual(stream, orig) {
			t.Fatalf("n=%d: split modified its input", n)
		}
	}

	// One shard owns the batch: one user's records, or users that all
	// hash to one shard.
	owned := stream[:3]
	var same []storage.Record
	for _, r := range stream {
		if Of(r.UserID, 4) == Of(owned[0].UserID, 4) {
			same = append(same, r)
		}
	}
	for _, batch := range [][]storage.Record{owned, same} {
		groups := split(batch, 4)
		g := groups[Of(batch[0].UserID, 4)]
		if len(g) != len(batch) || &g[0] != &batch[0] {
			t.Errorf("a batch of %d records one shard owns was copied", len(batch))
		}
	}
	if groups := split(nil, 4); !reflect.DeepEqual(groups, make([][]storage.Record, 4)) {
		t.Errorf("split(nil) = %v, want four nil groups", groups)
	}
}

// TestRestartFoldsUnderReads pins the concurrent restart folds: while
// Router.Bootstrap and Verifiers.Enroll fold four shards at once, reads
// and Verify run beside them, and once each call returns, every record
// is visible without a Sync. `make stress` runs it under -race at
// -count=50.
func TestRestartFoldsUnderReads(t *testing.T) {
	const shards, users = 4, 48
	rt, err := NewRouter(Config{
		Shards: shards,
		Engine: streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	vs, err := NewVerifiers(shards, verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var recs []storage.Record
	samples := map[string][]verify.Sample{}
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("u%d", u)
		for it := 0; it < 2; it++ {
			for _, v := range vectors.All[:3] {
				h := fmt.Sprintf("%v-h%d", v, (u*7+it)%11)
				recs = append(recs, storage.Record{UserID: user, Vector: v.String(), Iteration: it, Hash: h})
				samples[user] = append(samples[user], verify.Sample{Vector: v, Hash: h})
			}
		}
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = rt.Diversity()
			_ = rt.Status()
		}
	}()
	go func() {
		defer readers.Done()
		for u := 0; ; u = (u + 1) % users {
			select {
			case <-done:
				return
			default:
			}
			user := fmt.Sprintf("u%d", u)
			_, _ = vs.Verify(user, samples[user])
		}
	}()

	var folds sync.WaitGroup
	folds.Add(2)
	go func() {
		defer folds.Done()
		rt.Bootstrap(recs)
		if got := rt.Status().Records; got != int64(len(recs)) {
			t.Errorf("after Bootstrap the shards hold %d records, want %d", got, len(recs))
		}
	}()
	go func() {
		defer folds.Done()
		vs.Enroll(recs)
		for user, s := range samples {
			d, err := vs.Verify(user, s)
			if err != nil || !d.Accept {
				t.Errorf("%s right after Enroll: %+v, %v", user, d, err)
			}
		}
	}()
	folds.Wait()
	close(done)
	readers.Wait()
	if st := vs.Stats(); st.Users != users || st.Records != int64(len(recs)) {
		t.Errorf("verifiers hold %d users and %d records, want %d and %d", st.Users, st.Records, users, len(recs))
	}
}
