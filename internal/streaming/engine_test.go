package streaming_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/collate"
	"repro/internal/diversity"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/streaming"
	"repro/internal/study"
	"repro/internal/vectors"
)

// TestEngineConcurrentReads: every read runs under the engine's shared
// read lock, so reading must write nothing — under -race, a write two
// readers share is a data race. Each concurrent read must also serve the
// same payload as a lone one.
func TestEngineConcurrentReads(t *testing.T) {
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer eng.Close()
	eng.Apply(testRecords(t))
	div, cl, st, ami := eng.Diversity(), eng.Clusters(), eng.Stability(), eng.RefreshAMI()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if got := eng.Diversity(); !reflect.DeepEqual(got, div) {
					t.Errorf("concurrent Diversity = %+v, want %+v", got, div)
				}
				if got := eng.Clusters(); !reflect.DeepEqual(got, cl) {
					t.Errorf("concurrent Clusters = %+v, want %+v", got, cl)
				}
				if got := eng.Stability(); !reflect.DeepEqual(got, st) {
					t.Errorf("concurrent Stability = %+v, want %+v", got, st)
				}
				if got := eng.RefreshAMI(); !reflect.DeepEqual(got, ami) {
					t.Errorf("concurrent RefreshAMI = %+v, want %+v", got, ami)
				}
			}
		}()
	}
	wg.Wait()
}

// TestEngineSkipsAuxiliaryRecords: the analyses cover vectors.All only, so
// an auxiliary record (a MathJS row, which the collection server accepts)
// registers its user but joins no collation graph — as in
// study.FromRecordsOpts.
func TestEngineSkipsAuxiliaryRecords(t *testing.T) {
	recs := []storage.Record{
		{UserID: "u1", Vector: vectors.DC.String(), Hash: "a"},
		{UserID: "u2", Vector: vectors.DC.String(), Hash: "b"},
		{UserID: "u3", Vector: "MathJS", Hash: "a"},
	}
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer eng.Close()
	eng.Apply(recs)
	ds, err := study.FromRecordsOpts(recs, study.LoadOptions{KeepAllObservations: true})
	if err != nil {
		t.Fatal(err)
	}
	want := diversity.Summarize(ds.Labels(vectors.DC))
	if got := eng.Diversity().Rows[0]; got.Users != want.Users || got.Distinct != want.Distinct ||
		got.EntropyBits != want.EntropyBits {
		t.Errorf("DC row = %+v, want %+v", got, want)
	}
	if got := eng.Clusters().Rows[0]; got.Clusters != 3 || got.Observations != 2 {
		t.Errorf("DC clusters = %+v, want 3 clusters from 2 observations", got)
	}
}

// TestEngineSharesSurfaceValues: users whose surface values are equal hold
// one surface ID, though each user's records carry their own copy of the
// string, as decoded requests do; a value no other user holds gets an ID
// of its own, and a user with no value holds 0, the ID of "".
func TestEngineSharesSurfaceValues(t *testing.T) {
	rec := func(user, canvas string) storage.Record {
		return storage.Record{UserID: user, Vector: vectors.DC.String(), Hash: "a",
			UserAgent: strings.Clone("Mozilla/5.0 (X11; Linux x86_64) Firefox/96.0"),
			Surfaces: map[string]string{
				study.SurfaceCanvas:   strings.Clone(canvas),
				study.SurfaceFonts:    strings.Clone("Arial,Helvetica"),
				study.SurfaceMathJS:   strings.Clone("mathjs-1"),
				study.SurfacePlatform: strings.Clone("Linux x86_64"),
			}}
	}
	recs := []storage.Record{rec("u1", "canvas-a"), rec("u2", "canvas-a"), rec("u3", "canvas-b"),
		{UserID: "u4", Vector: vectors.DC.String(), Hash: "a"}}
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer eng.Close()
	eng.Apply(recs)
	st := eng.State()
	if len(st.Surfs) != 5 || len(st.Users) != 4 {
		t.Fatalf("state has %d surfaces over %d users, want 5 over 4", len(st.Surfs), len(st.Users))
	}
	for i, ids := range st.Surfs {
		if ids[0] == 0 || ids[0] != ids[1] {
			t.Errorf("surface %d: u1 holds ID %d and u2 ID %d, want one non-zero ID", i, ids[0], ids[1])
		}
		if ids[3] != 0 {
			t.Errorf("surface %d: u4, which set no value, holds ID %d, want 0", i, ids[3])
		}
	}
	if canvas := st.Surfs[0]; canvas[2] == 0 || canvas[2] == canvas[0] {
		t.Errorf("u3's canvas ID %d, u1's %d: want a distinct non-zero ID", canvas[2], canvas[0])
	}
}

// TestEngineInternsOnlyFirstUserAgent: a User-Agent is interned only
// where it can become its user's first non-empty one, so a user who
// already holds one, from an earlier batch or from the previous record,
// grows the surface space by nothing when it sends another; each user
// keeps the first.
func TestEngineInternsOnlyFirstUserAgent(t *testing.T) {
	rec := func(user, ua string) storage.Record {
		return storage.Record{UserID: user, Vector: vectors.DC.String(), Hash: "a", UserAgent: ua}
	}
	in := collate.NewInterner()
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1, Interner: in})
	defer eng.Close()
	steps := []struct {
		recs []storage.Record
		want int // surface values held, "" included
	}{
		{[]storage.Record{rec("u1", "ua-1")}, 2},
		{[]storage.Record{rec("u1", "ua-2")}, 2},
		{[]storage.Record{rec("u2", "ua-3"), rec("u2", "ua-4"), rec("u1", "ua-5")}, 3},
		{[]storage.Record{rec("u3", ""), rec("u3", "ua-6"), rec("u3", "ua-7")}, 4},
	}
	for i, step := range steps {
		eng.Apply(step.recs)
		if got := in.Len(collate.NumVectors); got != step.want {
			t.Errorf("after step %d the interner holds %d surface values, want %d", i, got, step.want)
		}
	}
	wantUA := []string{"ua-1", "ua-3", "ua-6"}
	ids := make([]int32, len(wantUA))
	in.Lookup(ids, func(i int) (int, string) { return collate.NumVectors, wantUA[i] })
	if got := eng.State().Surfs[4]; !reflect.DeepEqual(got, ids) {
		t.Errorf("User-Agent IDs = %v, want %v (%v)", got, ids, wantUA)
	}
}
