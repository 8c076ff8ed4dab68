package streaming_test

import (
	"reflect"
	"sync"
	"testing"

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

// TestEngineSkipsExtendedVectors: the analyses cover vectors.All only, so
// a record of an extended vector, which parses and which the collection
// server accepts, registers its user but joins no collation graph — as
// in study.FromRecordsOpts.
func TestEngineSkipsExtendedVectors(t *testing.T) {
	recs := []storage.Record{
		{UserID: "u1", Vector: vectors.DC.String(), Hash: "a"},
		{UserID: "u2", Vector: vectors.DC.String(), Hash: "b"},
		{UserID: "u3", Vector: vectors.Shaper.String(), Hash: "a"},
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
