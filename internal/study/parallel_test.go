package study

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/vectors"
	"repro/internal/webaudio"
)

// analysisResults bundles the outputs of every parallelized sweep.
type analysisResults struct {
	agreement []AgreementPoint
	match     []MatchScoreRow
	pairwise  [][]float64
	ranking   RankingResult
}

func sweepAll(t *testing.T, ds *Dataset) analysisResults {
	t.Helper()
	var r analysisResults
	var err error
	if r.agreement, err = ds.AgreementScores([]int{1, 2, 4}); err != nil {
		t.Fatal(err)
	}
	r.match = ds.MatchScores([]int{3, 4})
	if r.pairwise, err = ds.PairwiseVectorAMI(); err != nil {
		t.Fatal(err)
	}
	r.ranking = ds.SubsetRanking(4)
	return r
}

// TestParallelSerialEquivalence: every parallel sweep must produce results
// bit-identical to its serial (Parallelism: 1) run — same floats, same
// order.
func TestParallelSerialEquivalence(t *testing.T) {
	ds, err := Run(Config{Seed: 7, Users: 120, Iterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	ds.Parallelism = 1
	serial := sweepAll(t, ds)
	ds.Parallelism = 8
	parallel := sweepAll(t, ds)

	if !reflect.DeepEqual(serial.agreement, parallel.agreement) {
		t.Errorf("AgreementScores differ between serial and parallel runs:\n%v\nvs\n%v",
			serial.agreement, parallel.agreement)
	}
	if !reflect.DeepEqual(serial.match, parallel.match) {
		t.Errorf("MatchScores differ between serial and parallel runs:\n%v\nvs\n%v",
			serial.match, parallel.match)
	}
	if !reflect.DeepEqual(serial.pairwise, parallel.pairwise) {
		t.Errorf("PairwiseVectorAMI differs between serial and parallel runs:\n%v\nvs\n%v",
			serial.pairwise, parallel.pairwise)
	}
	if !reflect.DeepEqual(serial.ranking, parallel.ranking) {
		t.Errorf("SubsetRanking differs between serial and parallel runs:\n%v\nvs\n%v",
			serial.ranking, parallel.ranking)
	}
}

// TestRunAllWorkerError is the regression test for the worker-pool
// deadlock: with more work items than workers and every item failing, the
// old channel-fed pool blocked forever in the producer once all workers
// had exited. runAll must instead return the error promptly.
func TestRunAllWorkerError(t *testing.T) {
	boom := errors.New("boom")
	done := make(chan error, 1)
	go func() {
		done <- runAll(500, 4, func(int) error { return boom })
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Errorf("runAll error = %v, want %v", err, boom)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("runAll deadlocked on worker error")
	}
}

// TestRunAllCoverage: without errors, every index must run exactly once,
// at any worker count.
func TestRunAllCoverage(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		const n = 100
		var counts [n]atomic.Int32
		if err := runAll(n, workers, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestRunAllStopsAfterError: once an error surfaces, workers stop claiming
// new indices rather than draining the remaining work.
func TestRunAllStopsAfterError(t *testing.T) {
	var ran atomic.Int32
	boom := errors.New("boom")
	_ = runAll(10_000, 2, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if n := ran.Load(); n > 1000 {
		t.Errorf("%d items ran after an immediate error; cancellation is not propagating", n)
	}
}

// TestParallelRenderSingleflight: under a parallel run with a shared cache,
// concurrent misses on the same (stack, vector, offset) key must collapse to
// one render — every cache miss corresponds to exactly one memoized entry —
// and the dataset must be bit-identical to a serial run.
func TestParallelRenderSingleflight(t *testing.T) {
	cfg := Config{Seed: 5, Users: 60, Iterations: 6}

	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cache := vectors.NewCache()
	par := cfg
	par.Parallelism = 8
	par.RenderCache = cache
	parallel, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial.Obs, parallel.Obs) {
		t.Error("parallel run with shared cache produced different observations than serial run")
	}
	st := cache.Stats()
	if st.Misses != int64(cache.Len()) {
		t.Errorf("misses (%d) != entries (%d): duplicate renders slipped past singleflight",
			st.Misses, cache.Len())
	}
	if st.Hits == 0 {
		t.Error("expected cache hits in a 60-user study (platform classes repeat)")
	}
}

// TestRenderPassCounts pins a study's render bill to its drawn offsets:
// one audio context per (stack, vector) render pass, and per pass 96
// quanta plus the largest offset drawn (DC's offline render: 40), at any
// parallelism. It also pins which quanta render under the unobserved hint:
// DC's 35 before its window; for the Fig. 6 tail every quantum but the one
// 32-quantum ScriptProcessor buffer its captures read (offsets below 32
// all read quanta 64–95); none for FFT, which has no compressor. The
// expected counts come from redrawing the offsets here, independently of
// the study's plan.
func TestRenderPassCounts(t *testing.T) {
	cfg := Config{Seed: 19, Users: 40, Iterations: 8}
	type pass struct {
		stack string
		v     vectors.ID
	}
	maxOffset := map[pass]int{}
	jitter := platform.DefaultJitter()
	seeds := rand.New(rand.NewSource(cfg.Seed ^ 0x6a75747465726d6c))
	for _, d := range population.Sample(population.Config{Seed: cfg.Seed, N: cfg.Users}) {
		rng := rand.New(rand.NewSource(seeds.Int63()))
		for it := 0; it < cfg.Iterations; it++ {
			for _, v := range vectors.All {
				off := jitter.Offset(rng, d.Load, v)
				if off >= 32 {
					t.Fatalf("jitter drew offset %d; the expected bill assumes offsets below 32", off)
				}
				k := pass{d.AudioStackKey(), v}
				if m, ok := maxOffset[k]; !ok || off > m {
					maxOffset[k] = off
				}
			}
		}
	}
	wantContexts, wantQuanta, wantHinted := int64(len(maxOffset)), int64(0), int64(0)
	for k, m := range maxOffset {
		switch k.v {
		case vectors.DC:
			wantQuanta += 40
			wantHinted += 35
		case vectors.FFT:
			wantQuanta += 96 + int64(m)
		default:
			wantQuanta += 96 + int64(m)
			wantHinted += 96 + int64(m) - 32
		}
	}

	for _, par := range []int{1, 8} {
		c := cfg
		c.Parallelism = par
		before := webaudio.Stats()
		if _, err := Run(c); err != nil {
			t.Fatal(err)
		}
		after := webaudio.Stats()
		if got := after.Contexts - before.Contexts; got != wantContexts {
			t.Errorf("parallelism %d: %d contexts, want %d (one per stack × vector)", par, got, wantContexts)
		}
		if got := after.Quanta - before.Quanta; got != wantQuanta {
			t.Errorf("parallelism %d: %d quanta, want %d", par, got, wantQuanta)
		}
		if got := after.UnobservedQuanta - before.UnobservedQuanta; got != wantHinted {
			t.Errorf("parallelism %d: %d hinted quanta, want %d", par, got, wantHinted)
		}
	}
}

// TestConcurrentCacheAndGraphStress exercises the shared vectors.Cache and
// the dataset's lazily built caches (Index, dense labels) from many
// goroutines — run under -race via `make check`.
func TestConcurrentCacheAndGraphStress(t *testing.T) {
	ds, err := Run(Config{Seed: 11, Users: 30, Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	cache := vectors.NewCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runner := vectors.NewRunner(webaudio.DefaultTraits(), 0)
			for _, v := range vectors.All {
				if _, err := cache.Run("default", runner, v, w%3); err != nil {
					t.Error(err)
					return
				}
				if ds.Index().NumFingerprints(v) == 0 {
					t.Errorf("Index has no fingerprints for %v", v)
					return
				}
				if got := len(ds.Labels(v)); got != 30 {
					t.Errorf("Labels(%v) has %d entries", v, got)
					return
				}
			}
			if _, err := ds.AgreementScores([]int{2}); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
}
