package streaming_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/diversity"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/study"
	"repro/internal/vectors"
)

// The batch/streaming equivalence property: replaying ANY prefix of a
// record stream through the engine must yield labels, cluster counts,
// distinct-per-user counts, diversity rows (exact float equality — both
// paths reduce to diversity.SummaryFromCounts) and pairwise AMI identical
// to loading the same prefix with study.FromRecordsOpts(KeepAll) and
// running the batch analyses. Streams include out-of-order delivery and
// duplicate records (what idempotency-key replays and at-least-once
// delivery produce); both sides must agree regardless.

var (
	testRecsOnce sync.Once
	testRecs     []storage.Record
	testRecsErr  error
)

// testRecords renders a small seeded population once and returns a copy
// of its flattened records.
func testRecords(t *testing.T) []storage.Record {
	t.Helper()
	testRecsOnce.Do(func() {
		ds, err := study.Run(study.Config{Seed: 20220719, Users: 27, Iterations: 4, Parallelism: 4})
		if err != nil {
			testRecsErr = err
			return
		}
		testRecs = ds.ToRecords(time.Unix(1660000000, 0).UTC())
	})
	if testRecsErr != nil {
		t.Fatal(testRecsErr)
	}
	return slices.Clone(testRecs)
}

// perturb returns a copy of recs with ~rate duplicates inserted and, when
// shuffle is set, the whole stream reordered.
func perturb(recs []storage.Record, rng *rand.Rand, rate float64, shuffle bool) []storage.Record {
	out := make([]storage.Record, 0, len(recs)+len(recs)/10)
	for _, r := range recs {
		out = append(out, r)
		if rng.Float64() < rate {
			out = append(out, r) // idempotent replay of the same record
		}
	}
	if shuffle {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// batchSummaries computes the batch-side diversity rows in the engine's
// row order, through the same stable float kernel.
func batchSummaries(ds *study.Dataset) []streaming.DiversityRow {
	rows := make([]streaming.DiversityRow, 0, len(vectors.All)+6)
	row := func(name string, s diversity.Summary) streaming.DiversityRow {
		return streaming.DiversityRow{Name: name, Users: s.Users, Distinct: s.Distinct,
			Unique: s.Unique, EntropyBits: s.EntropyBits, Normalized: s.Normalized}
	}
	for _, v := range vectors.All {
		rows = append(rows, row(v.String(), diversity.Summarize(ds.Labels(v))))
	}
	rows = append(rows, row("Combined", diversity.Summarize(ds.CombinedLabels())))
	rows = append(rows, row("Canvas", diversity.Summarize(ds.Canvas)))
	rows = append(rows, row("Fonts", diversity.Summarize(ds.Fonts)))
	rows = append(rows, row("MathJS", diversity.Summarize(ds.MathJS)))
	rows = append(rows, row("Platform", diversity.Summarize(ds.Platforms)))
	rows = append(rows, row("User-Agent", diversity.Summarize(ds.UA)))
	return rows
}

// comparePrefix asserts every streamed quantity against the batch analysis
// of the same prefix.
func comparePrefix(t *testing.T, eng *streaming.Engine, prefix []storage.Record) {
	t.Helper()
	ds, err := study.FromRecordsOpts(prefix, study.LoadOptions{KeepAllObservations: true})
	if err != nil {
		t.Fatalf("batch load of %d records: %v", len(prefix), err)
	}
	st := eng.State()
	if got := st.Users; !reflect.DeepEqual(got, ds.Users) {
		t.Fatalf("prefix %d: user order differs: %v vs %v", len(prefix), got, ds.Users)
	}
	for _, v := range vectors.All {
		if got, want := st.Labels(v), ds.Labels(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("prefix %d: %v labels differ:\n got %v\nwant %v", len(prefix), v, got, want)
		}
		if got, want := st.DistinctPerUser(v), ds.DistinctPerUser(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("prefix %d: %v distinct-per-user differ:\n got %v\nwant %v", len(prefix), v, got, want)
		}
	}

	// Diversity rows: exact float equality, not approximate.
	gotDiv := eng.Diversity()
	wantRows := batchSummaries(ds)
	if len(gotDiv.Rows) != len(wantRows) {
		t.Fatalf("prefix %d: %d diversity rows, want %d", len(prefix), len(gotDiv.Rows), len(wantRows))
	}
	for i, want := range wantRows {
		if gotDiv.Rows[i] != want {
			t.Fatalf("prefix %d: diversity row %q differs:\n got %+v\nwant %+v",
				len(prefix), want.Name, gotDiv.Rows[i], want)
		}
	}

	// Cluster statistics against the batch labels.
	gotCl := eng.Clusters()
	for i, v := range vectors.All {
		labels := ds.Labels(v)
		k := 0
		for _, l := range labels {
			if l >= k {
				k = l + 1
			}
		}
		sizes := make([]int, k)
		for _, l := range labels {
			sizes[l]++
		}
		unique := 0
		for _, s := range sizes {
			if s == 1 {
				unique++
			}
		}
		r := gotCl.Rows[i]
		if r.Vector != v.String() || r.Clusters != k || r.Unique != unique || r.Users != len(ds.Users) {
			t.Fatalf("prefix %d: cluster row %v = %+v, want k=%d unique=%d users=%d",
				len(prefix), v, r, k, unique, len(ds.Users))
		}
	}

	// Stability rows: same min/max and bit-identical mean.
	gotSt := eng.Stability()
	for i, v := range vectors.All {
		counts := ds.DistinctPerUser(v)
		want := streaming.StabilityRow{Vector: v.String(), Min: counts[0], Max: counts[0]}
		sum := 0
		for _, c := range counts {
			if c < want.Min {
				want.Min = c
			}
			if c > want.Max {
				want.Max = c
			}
			sum += c
		}
		want.Mean = float64(sum) / float64(len(counts))
		if gotSt.Rows[i] != want {
			t.Fatalf("prefix %d: stability row %v = %+v, want %+v", len(prefix), v, gotSt.Rows[i], want)
		}
	}

	// Pairwise AMI after an explicit refresh: bit-identical matrix.
	gotAMI := eng.RefreshAMI()
	wantAMI, err := ds.PairwiseVectorAMI()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotAMI.Matrix, wantAMI) {
		t.Fatalf("prefix %d: AMI matrix differs:\n got %v\nwant %v", len(prefix), gotAMI.Matrix, wantAMI)
	}
}

func replayAndCompare(t *testing.T, stream []storage.Record, rng *rand.Rand, cuts int) {
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer eng.Close()

	// Random strictly increasing prefix cut points, always ending at the
	// full stream.
	points := map[int]struct{}{len(stream): {}}
	for len(points) < cuts {
		points[1+rng.Intn(len(stream))] = struct{}{}
	}
	next := 0
	for p := 1; p <= len(stream); p++ {
		if _, ok := points[p]; !ok {
			continue
		}
		// Feed in uneven batches, as HTTP submissions would arrive.
		for next < p {
			n := 1 + rng.Intn(40)
			if next+n > p {
				n = p - next
			}
			eng.EnqueueContext(context.Background(), stream[next:next+n])
			next += n
		}
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
		comparePrefix(t, eng, stream[:p])
	}
}

func TestStreamingMatchesBatchInOrder(t *testing.T) {
	recs := testRecords(t)
	rng := rand.New(rand.NewSource(1))
	replayAndCompare(t, perturb(recs, rng, 0.05, false), rng, 7)
}

func TestStreamingMatchesBatchOutOfOrder(t *testing.T) {
	recs := testRecords(t)
	rng := rand.New(rand.NewSource(2))
	replayAndCompare(t, perturb(recs, rng, 0.08, true), rng, 7)
}

// TestStreamingIdempotentReplay: re-applying an entire already-applied
// batch (what an at-least-once delivery or a replayed idempotency key
// would cause upstream of the dedup cache) must not change any result.
func TestStreamingIdempotentReplay(t *testing.T) {
	recs := testRecords(t)
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer eng.Close()
	eng.EnqueueContext(context.Background(), recs)
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	before := eng.Diversity()
	labelsBefore := eng.State().Labels(vectors.Hybrid)
	eng.EnqueueContext(context.Background(), recs[:len(recs)/3]) // replay a whole prefix again
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	after := eng.Diversity()
	if !reflect.DeepEqual(before.Rows, after.Rows) {
		t.Errorf("diversity rows changed after replay:\n before %+v\n after %+v", before.Rows, after.Rows)
	}
	if !reflect.DeepEqual(labelsBefore, eng.State().Labels(vectors.Hybrid)) {
		t.Error("labels changed after replay")
	}
}

// TestStreamingBootstrapMatchesEnqueue: the recovery path (Bootstrap) must
// land in exactly the state incremental ingestion produces.
func TestStreamingBootstrapMatchesEnqueue(t *testing.T) {
	recs := testRecords(t)
	live := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer live.Close()
	for i := 0; i < len(recs); i += 97 {
		end := i + 97
		if end > len(recs) {
			end = len(recs)
		}
		live.EnqueueContext(context.Background(), recs[i:end])
	}
	if err := live.Sync(); err != nil {
		t.Fatal(err)
	}
	reborn := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer reborn.Close()
	reborn.Bootstrap(recs)

	if a, b := live.Diversity(), reborn.Diversity(); !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Errorf("bootstrap diversity differs:\n live %+v\n reborn %+v", a.Rows, b.Rows)
	}
	if a, b := live.RefreshAMI(), reborn.AMI(); !reflect.DeepEqual(a.Matrix, b.Matrix) {
		t.Error("bootstrap AMI differs from live AMI")
	}
	for _, v := range vectors.All {
		if !reflect.DeepEqual(live.State().Labels(v), reborn.State().Labels(v)) {
			t.Fatalf("bootstrap %v labels differ", v)
		}
	}
}

// TestStreamingEmpty: snapshots of an empty engine are well-formed.
func TestStreamingEmpty(t *testing.T) {
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry()})
	defer eng.Close()
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	d := eng.Diversity()
	if d.Users != 0 || d.Records != 0 {
		t.Errorf("empty engine diversity: %+v", d)
	}
	for _, row := range d.Rows {
		if row.Name == "Combined" {
			t.Error("empty engine must omit the Combined row")
		}
	}
	if eng.AMI() != nil {
		t.Error("empty engine served an AMI snapshot before any refresh")
	}
	if snap := eng.RefreshAMI(); snap.Matrix != nil {
		t.Errorf("empty-population AMI matrix = %v, want nil", snap.Matrix)
	}
	if st := eng.Status(); st.Records != 0 || st.Users != 0 {
		t.Errorf("empty status: %+v", st)
	}
}

// TestStreamingAutoAMIRefresh: the snapshot refreshes on its own once
// enough records have been applied.
func TestStreamingAutoAMIRefresh(t *testing.T) {
	recs := testRecords(t)
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: 100})
	defer eng.Close()
	eng.EnqueueContext(context.Background(), recs)
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	snap := eng.AMI()
	if snap == nil {
		t.Fatal("no AMI snapshot after exceeding the refresh interval")
	}
	if snap.Records == 0 || len(snap.Matrix) != len(vectors.All) {
		t.Errorf("auto-refreshed snapshot: records=%d matrix=%dx", snap.Records, len(snap.Matrix))
	}
	for i := range snap.Matrix {
		if snap.Matrix[i][i] != 1 {
			t.Errorf("diagonal[%d] = %v, want 1", i, snap.Matrix[i][i])
		}
	}
}

// TestSyncObservesBatchHooks: once Sync returns, every applied batch's
// observer call and due AMI refresh have happened, not merely its fold.
func TestSyncObservesBatchHooks(t *testing.T) {
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: 8})
	defer eng.Close()
	var observed atomic.Int64
	eng.SetObserver(func(records int64) { observed.Store(records) })
	var total int64
	for b := 0; b < 12; b++ {
		batch := make([]storage.Record, 3)
		for i := range batch {
			batch[i] = storage.Record{UserID: fmt.Sprintf("u%d", (b*3+i)%7), Vector: "DC", Hash: fmt.Sprintf("h%d", i)}
		}
		eng.EnqueueContext(context.Background(), batch)
		total += int64(len(batch))
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := observed.Load(); got != total {
			t.Fatalf("after Sync the observer saw %d records, want %d", got, total)
		}
		if snap := eng.AMI(); total >= 8 && (snap == nil || total-snap.Records >= 8) {
			t.Fatalf("after Sync at %d records the AMI snapshot is %+v, want one within 8 records", total, snap)
		}
	}
}

// TestStreamingSurfaceRules: User-Agent is first-non-empty-wins and other
// surfaces last-record-wins, mirroring FromRecords.
func TestStreamingSurfaceRules(t *testing.T) {
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer eng.Close()
	recs := []storage.Record{
		{UserID: "u1", Vector: "DC", Hash: "a", UserAgent: "UA-1",
			Surfaces: map[string]string{study.SurfaceCanvas: "c1"}},
		{UserID: "u1", Vector: "DC", Hash: "a", UserAgent: "UA-2",
			Surfaces: map[string]string{study.SurfaceCanvas: "c2"}},
		{UserID: "u2", Vector: "DC", Hash: "b"},
	}
	eng.EnqueueContext(context.Background(), recs)
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	ds, err := study.FromRecordsOpts(recs, study.LoadOptions{KeepAllObservations: true})
	if err != nil {
		t.Fatal(err)
	}
	got := eng.Diversity()
	want := batchSummaries(ds)
	for i, w := range want {
		if got.Rows[i] != w {
			t.Errorf("row %q: got %+v want %+v", w.Name, got.Rows[i], w)
		}
	}
}

// TestStreamingSyncAfterClose: Sync on a closed engine with everything
// drained returns nil; lost batches surface ErrClosed.
func TestStreamingSyncAfterClose(t *testing.T) {
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	eng.EnqueueContext(context.Background(), []storage.Record{{UserID: "u", Vector: "DC", Hash: "h"}})
	eng.Close()
	if err := eng.Sync(); err != nil {
		t.Fatalf("Sync after clean close: %v", err)
	}
	// Enqueue after close is a no-op.
	eng.EnqueueContext(context.Background(), []storage.Record{{UserID: "x", Vector: "DC", Hash: "h2"}})
	if got := eng.State().Users; len(got) != 1 || got[0] != "u" {
		t.Errorf("users after close = %v, want [u]", got)
	}
}
