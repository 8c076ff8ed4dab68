package shard_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/shard"
	"repro/internal/storage"
)

func stampRec(user string, i int) storage.Record {
	return storage.Record{UserID: user, Vector: "DC", Iteration: i, Hash: fmt.Sprintf("h%d", i)}
}

// TestStoresResumeSeqFromPersistedMax: a reopened Stores stamps its next
// record one past the highest Seq on disk, wherever that record sits —
// not necessarily the last line of any shard, and followed here by a
// torn tail on its shard.
func TestStoresResumeSeqFromPersistedMax(t *testing.T) {
	base := filepath.Join(t.TempDir(), "fp.ndjson")
	ss, err := shard.OpenStores(base, 3, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := ss.Append(stampRec(fmt.Sprintf("u%d", i%9), i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	// Find the shard holding Seq 40 and leave a crash artifact after it.
	var top string
	for i := 0; i < 3; i++ {
		st, err := storage.Open(shard.StorePath(base, i), storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := st.All()
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Seq == 40 {
				top = shard.StorePath(base, i)
			}
		}
	}
	f, err := os.OpenFile(top, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"user_id":"torn","seq":99`)
	f.Close()

	ss2, err := shard.OpenStores(base, 3, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	if _, err := ss2.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := ss2.Append(stampRec("late", 0), stampRec("later", 1)); err != nil {
		t.Fatal(err)
	}
	all, err := ss2.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 42 {
		t.Fatalf("All returned %d records, want 42", len(all))
	}
	for i, r := range all {
		if r.Seq != int64(i)+1 {
			t.Fatalf("record %d (%s) has seq %d, want %d", i, r.UserID, r.Seq, i+1)
		}
	}
}

// TestStoresAllConcurrentAppends: with appenders racing, shard files hold
// their records out of Seq order; All must still return the union in the
// order a stable sort by Seq over the shard-ordered concatenation gives,
// including pre-sharding records that all carry Seq 0.
func TestStoresAllConcurrentAppends(t *testing.T) {
	base := filepath.Join(t.TempDir(), "fp.ndjson")
	for i := 0; i < 4; i++ {
		st, err := storage.Open(shard.StorePath(base, i), storage.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(stampRec(fmt.Sprintf("legacy%d", i), 0), stampRec(fmt.Sprintf("legacy%d", i), 1)); err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	ss, err := shard.OpenStores(base, 4, storage.Options{MaxSegmentBytes: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	const writers, batches = 6, 40
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				batch := make([]storage.Record, 1+(w+b)%5)
				for i := range batch {
					batch[i] = stampRec(fmt.Sprintf("w%d-u%d", w, (b+i)%11), b)
				}
				if err := ss.Append(batch...); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var want []storage.Record
	for i := 0; i < ss.Shards(); i++ {
		recs, err := ss.Shard(i).All()
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, recs...)
	}
	sort.SliceStable(want, func(i, j int) bool { return want[i].Seq < want[j].Seq })
	got, err := ss.All()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("All order differs from the stable Seq sort (%d vs %d records)", len(got), len(want))
	}
	if n := ss.Count(); len(got) != n || n != 8+writers*batches*3 {
		t.Fatalf("All returned %d records, Count %d", len(got), n)
	}
	for i := 8; i < len(got); i++ {
		if got[i].Seq != int64(i-7) {
			t.Fatalf("record %d has seq %d, want %d", i, got[i].Seq, i-7)
		}
	}
}
