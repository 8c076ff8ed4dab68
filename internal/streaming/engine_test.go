package streaming_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

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

// TestEngineSharesSurfaceValues: users whose surface values are equal
// point at one string in the engine's state, though each user's records
// carry their own copy, as decoded requests do; a value no other user
// holds stays the user's own.
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
	recs := []storage.Record{rec("u1", "canvas-a"), rec("u2", "canvas-a"), rec("u3", "canvas-b")}
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer eng.Close()
	eng.Apply(recs)
	st := eng.State()
	if len(st.Surfs) != 5 || len(st.Users) != 3 {
		t.Fatalf("state has %d surfaces over %d users, want 5 over 3", len(st.Surfs), len(st.Users))
	}
	for i, values := range st.Surfs {
		if values[0] != values[1] || unsafe.StringData(values[0]) != unsafe.StringData(values[1]) {
			t.Errorf("surface %d: u1 %q and u2 %q do not share one string", i, values[0], values[1])
		}
	}
	if canvas := st.Surfs[0]; canvas[2] != "canvas-b" || unsafe.StringData(canvas[2]) != unsafe.StringData(recs[2].Surfaces[study.SurfaceCanvas]) {
		t.Errorf("u3's canvas %q is not its own record's string", canvas[2])
	}
}
