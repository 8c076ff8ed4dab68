package shard_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/collectserver"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/study"
	"repro/internal/vectors"
)

// The enforced gate of the sharded plane (ISSUE 8, DESIGN.md §14):
// replaying the paper's 2093-user dataset through N ∈ {1,2,3,8,16} shards
// in randomized interleavings must produce byte-identical
// /api/v1/analytics/* response bodies — and golden values (Table 2
// entropies, Figure 5 AMI) — versus the single-engine path. Under -short
// the population shrinks but the full shard grid still runs.

var paperOnce sync.Once
var paperRecs []storage.Record
var paperErr error

// paperRecords renders the differential fixture once per process: the
// paper's 2093 users at 2 iterations (the user count is what shard
// balance, label canonicalization and AMI depend on; iterations only
// scale the record count), or a 199-user slice under -short.
func paperRecords(t testing.TB) []storage.Record {
	t.Helper()
	users, iters := 2093, 2
	if testing.Short() {
		users, iters = 199, 3
	}
	paperOnce.Do(func() {
		ds, err := study.Run(study.Config{Seed: 20220325, Users: users, Iterations: iters, Parallelism: 4})
		if err != nil {
			paperErr = err
			return
		}
		paperRecs = ds.ToRecords(time.Unix(1660000000, 0).UTC())
	})
	if paperErr != nil {
		t.Fatal(paperErr)
	}
	return paperRecs
}

// perturb returns a copy of recs with ~rate duplicate records inserted
// and, when shuffle is set, the stream order randomized — the randomized
// interleavings of the gate.
func perturb(recs []storage.Record, rng *rand.Rand, rate float64, shuffle bool) []storage.Record {
	out := make([]storage.Record, 0, len(recs)+len(recs)/10)
	for _, r := range recs {
		out = append(out, r)
		if rng.Float64() < rate {
			out = append(out, r)
		}
	}
	if shuffle {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

var analyticsRoutes = []string{
	"/api/v1/analytics/entropy",
	"/api/v1/analytics/clusters",
	"/api/v1/analytics/stability",
	"/api/v1/analytics/ami",
	"/api/v1/analytics/status",
}

// analyticsServer mounts a collectserver over the given analytics plane.
// The store backs only the non-analytics routes and is never read here.
func analyticsServer(t *testing.T, analytics collectserver.Analytics) http.Handler {
	t.Helper()
	st, err := storage.Open(filepath.Join(t.TempDir(), "dummy.ndjson"), storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv, err := collectserver.New(collectserver.Config{
		Store:     st,
		Registry:  obs.NewRegistry(),
		Analytics: analytics,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv.Handler()
}

// analyticsBodies GETs every analytics route and returns the raw response
// bodies — the byte-identity unit of the gate.
func analyticsBodies(t *testing.T, h http.Handler) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(analyticsRoutes))
	for _, route := range analyticsRoutes {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", route, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", route, rec.Code, rec.Body.String())
		}
		out[route] = rec.Body.Bytes()
	}
	return out
}

// feed streams recs into an Analytics plane in uneven batches, as HTTP
// submissions would arrive.
func feed(plane collectserver.Analytics, recs []storage.Record, rng *rand.Rand) {
	for next := 0; next < len(recs); {
		n := 1 + rng.Intn(64)
		if next+n > len(recs) {
			n = len(recs) - next
		}
		plane.EnqueueContext(context.Background(), recs[next:next+n])
		next += n
	}
}

func newRouter(t *testing.T, n int) *shard.Router {
	t.Helper()
	rt, err := shard.NewRouter(shard.Config{
		Shards: n,
		Engine: streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestShardDifferentialGate is the gate: three interleavings (in-order,
// duplicated, duplicated+shuffled) × N ∈ {1,2,3,8,16} shards, every
// analytics route byte-identical to the single-engine reference over the
// same stream.
func TestShardDifferentialGate(t *testing.T) {
	recs := paperRecords(t)
	interleavings := []struct {
		name    string
		rate    float64
		shuffle bool
		seed    int64
	}{
		{"in-order", 0, false, 101},
		{"duplicates", 0.05, false, 102},
		{"shuffled", 0.08, true, 103},
	}
	for _, il := range interleavings {
		stream := perturb(recs, rand.New(rand.NewSource(il.seed)), il.rate, il.shuffle)

		// Single-engine reference over this interleaving.
		ref := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
		feed(ref, stream, rand.New(rand.NewSource(il.seed+1000)))
		if err := ref.Sync(); err != nil {
			t.Fatal(err)
		}
		ref.RefreshAMI()
		refBodies := analyticsBodies(t, analyticsServer(t, ref))
		ref.Close()

		for _, n := range []int{1, 2, 3, 8, 16} {
			t.Run(fmt.Sprintf("%s/shards=%d", il.name, n), func(t *testing.T) {
				rt := newRouter(t, n)
				feed(rt, stream, rand.New(rand.NewSource(il.seed+int64(n))))
				if err := rt.Sync(); err != nil {
					t.Fatal(err)
				}
				rt.RefreshAMI()
				got := analyticsBodies(t, analyticsServer(t, rt))
				for _, route := range analyticsRoutes {
					if !bytes.Equal(got[route], refBodies[route]) {
						t.Errorf("GET %s differs from single-engine reference:\nsharded: %s\nsingle:  %s",
							route, got[route], refBodies[route])
					}
				}
			})
		}
	}
}

// TestShardGoldenValues pins the merged results to the batch pipeline's
// golden quantities for the in-order stream: Table 2 diversity rows
// (exact float equality through diversity.SummaryFromCounts) and the
// Figure 5 pairwise-AMI matrix (cluster.PairwiseAMI over canonical labels).
func TestShardGoldenValues(t *testing.T) {
	recs := paperRecords(t)
	ds, err := study.FromRecordsOpts(recs, study.LoadOptions{KeepAllObservations: true})
	if err != nil {
		t.Fatal(err)
	}
	rt := newRouter(t, 8)
	rt.Apply(recs)

	div := rt.Diversity()
	for i, v := range vectors.All {
		want := ds.Labels(v)
		got := div.Rows[i]
		k := 0
		for _, l := range want {
			if l >= k {
				k = l + 1
			}
		}
		if got.Name != v.String() || got.Users != len(ds.Users) || got.Distinct != k {
			t.Errorf("Table 2 row %v = %+v, want users=%d distinct=%d", v, got, len(ds.Users), k)
		}
	}

	snap := rt.RefreshAMI()
	want, err := ds.PairwiseVectorAMI()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap.Matrix, want) {
		t.Errorf("Figure 5 AMI matrix differs:\n got %v\nwant %v", snap.Matrix, want)
	}
	if got := rt.Merged().Users; !reflect.DeepEqual(got, ds.Users) {
		t.Errorf("merged user order differs from batch order")
	}
}

// TestShardMidStreamPrefix checks bit-identity doesn't only hold at the
// end: cut the stream mid-way, sync, and compare against a reference
// engine fed the same prefix.
func TestShardMidStreamPrefix(t *testing.T) {
	recs := paperRecords(t)
	stream := perturb(recs, rand.New(rand.NewSource(42)), 0.05, true)
	cut := len(stream) / 2

	ref := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer ref.Close()
	ref.Apply(stream[:cut])
	ref.RefreshAMI()
	refBodies := analyticsBodies(t, analyticsServer(t, ref))

	rt := newRouter(t, 3)
	feed(rt, stream[:cut], rand.New(rand.NewSource(43)))
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	rt.RefreshAMI()
	got := analyticsBodies(t, analyticsServer(t, rt))
	for _, route := range analyticsRoutes {
		if !bytes.Equal(got[route], refBodies[route]) {
			t.Errorf("mid-stream GET %s differs:\nsharded: %s\nsingle:  %s",
				route, got[route], refBodies[route])
		}
	}

	// Feed the remainder and re-check at the end too.
	ref.Apply(stream[cut:])
	ref.RefreshAMI()
	refBodies = analyticsBodies(t, analyticsServer(t, ref))
	feed(rt, stream[cut:], rand.New(rand.NewSource(44)))
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	rt.RefreshAMI()
	got = analyticsBodies(t, analyticsServer(t, rt))
	for _, route := range analyticsRoutes {
		if !bytes.Equal(got[route], refBodies[route]) {
			t.Errorf("resumed GET %s differs from single-engine reference", route)
		}
	}
}

// TestStoresRoundTrip covers the persistence half: appends fan out to
// per-shard segment chains, All() reconstructs global arrival order by
// Seq, and a reopened Stores resumes the sequence counter.
func TestStoresRoundTrip(t *testing.T) {
	recs := paperRecords(t)
	if len(recs) > 4000 {
		recs = recs[:4000]
	}
	base := filepath.Join(t.TempDir(), "fp.ndjson")
	ss, err := shard.OpenStores(base, 3, storage.Options{MaxSegmentBytes: 64 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for next := 0; next < len(recs); {
		n := 1 + rng.Intn(50)
		if next+n > len(recs) {
			n = len(recs) - next
		}
		if err := ss.Append(recs[next : next+n]...); err != nil {
			t.Fatal(err)
		}
		next += n
	}
	if got := ss.Count(); got != len(recs) {
		t.Fatalf("Count = %d, want %d", got, len(recs))
	}
	all, err := ss.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(recs) {
		t.Fatalf("All returned %d records, want %d", len(all), len(recs))
	}
	for i := range all {
		if all[i].Seq != int64(i)+1 {
			t.Fatalf("record %d has seq %d, want %d", i, all[i].Seq, i+1)
		}
		if all[i].UserID != recs[i].UserID || all[i].Hash != recs[i].Hash {
			t.Fatalf("record %d out of arrival order after re-sort", i)
		}
	}
	// Every shard only holds its own users.
	for i := 0; i < ss.Shards(); i++ {
		shRecs, err := ss.Shard(i).All()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range shRecs {
			if shard.Of(r.UserID, 3) != i {
				t.Fatalf("user %s persisted on shard %d, owner is %d", r.UserID, i, shard.Of(r.UserID, 3))
			}
		}
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: sequence resumes, order preserved, append continues.
	ss2, err := shard.OpenStores(base, 3, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss2.Close()
	extra := storage.Record{UserID: "late-user", Vector: "DC", Hash: "deadbeef"}
	if err := ss2.Append(extra); err != nil {
		t.Fatal(err)
	}
	all2, err := ss2.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all2) != len(recs)+1 {
		t.Fatalf("after reopen All returned %d, want %d", len(all2), len(recs)+1)
	}
	last := all2[len(all2)-1]
	if last.UserID != "late-user" || last.Seq != int64(len(recs))+1 {
		t.Fatalf("resumed append got seq %d (user %s), want seq %d", last.Seq, last.UserID, len(recs)+1)
	}
}

// TestShardBootstrapFromStores closes the loop fpserver -shards relies
// on: persist a stream through Stores, bootstrap a fresh Router from
// All(), and compare every analytics route against a single engine fed
// the original stream.
func TestShardBootstrapFromStores(t *testing.T) {
	recs := paperRecords(t)
	if len(recs) > 6000 {
		recs = recs[:6000]
	}
	ref := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer ref.Close()
	ref.Bootstrap(recs)
	refBodies := analyticsBodies(t, analyticsServer(t, ref))

	base := filepath.Join(t.TempDir(), "fp.ndjson")
	ss, err := shard.OpenStores(base, 4, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	rng := rand.New(rand.NewSource(11))
	for next := 0; next < len(recs); {
		n := 1 + rng.Intn(40)
		if next+n > len(recs) {
			n = len(recs) - next
		}
		if err := ss.Append(recs[next : next+n]...); err != nil {
			t.Fatal(err)
		}
		next += n
	}
	replay, err := ss.All()
	if err != nil {
		t.Fatal(err)
	}
	rt := newRouter(t, 4)
	rt.Bootstrap(replay)
	got := analyticsBodies(t, analyticsServer(t, rt))
	for _, route := range analyticsRoutes {
		if !bytes.Equal(got[route], refBodies[route]) {
			t.Errorf("bootstrap GET %s differs from single-engine reference:\nsharded: %s\nsingle:  %s",
				route, got[route], refBodies[route])
		}
	}
}
