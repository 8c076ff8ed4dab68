package main

import (
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/population"
	"repro/internal/report"
	"repro/internal/streaming"
	"repro/internal/study"
	"repro/internal/vectors"
)

// studyReference is fpstudy's standard output at its default flags, the
// benchmark's default seed and paper sizes.
//
//go:embed testdata/study-20220325.txt
var studyReference []byte

// followUpSeed derives the follow-up campaign's seed from the main one,
// so the default seed reproduces fpstudy's pair of defaults.
func followUpSeed(seed int64) int64 { return seed - core.MainStudySeed + core.FollowUpSeed }

// studyPipeline is fpstudy's default sequence: the main study and the
// follow-up sharing one render cache, every experiment, the s=3 ablation,
// the anonymity sets and the era comparison, written to out.
func studyPipeline(ctx context.Context, out io.Writer, sz sizes, seed int64, cache *vectors.Cache) (mainDS, followUp *study.Dataset, err error) {
	mainDS, err = study.RunContext(ctx, study.Config{Seed: seed, Users: sz.StudyUsers,
		Iterations: sz.Iterations, RenderCache: cache})
	if err != nil {
		return nil, nil, fmt.Errorf("main study: %w", err)
	}
	followUp, err = study.RunContext(ctx, study.Config{Seed: followUpSeed(seed), Users: sz.FollowUpUsers,
		Iterations: sz.Iterations, Mix: population.FollowUpMix(), IDPrefix: "f", RenderCache: cache})
	if err != nil {
		return nil, nil, fmt.Errorf("follow-up study: %w", err)
	}
	if err := core.WriteDemographicsContext(ctx, out, mainDS); err != nil {
		return nil, nil, err
	}
	fmt.Fprintln(out)
	if err := core.WriteAllExperimentsContext(ctx, out, mainDS, followUp); err != nil {
		return nil, nil, err
	}
	if err := core.WriteAblationContext(ctx, out, mainDS, 3); err != nil {
		return nil, nil, err
	}
	fmt.Fprintln(out)
	if err := core.WriteAnonymityContext(ctx, out, mainDS); err != nil {
		return nil, nil, err
	}
	fmt.Fprintln(out)
	_, sp := obs.Start(ctx, "analyze/evolution")
	err = core.WriteEvolution(out, seed, sz.EvolutionUsers, min(sz.Iterations, 10))
	sp.End()
	return mainDS, followUp, err
}

// runStudy runs the study workload once: set-up is sampling both
// participant pools, the measured job is the whole pipeline.
func runStudy(ctx context.Context, sz sizes, seed int64, traced bool) (*result, error) {
	res := &result{Workload: "study", Attempted: 1}
	setups, err := setUp(sz, func(bool) (time.Duration, error) {
		t := time.Now()
		population.Sample(population.Config{Seed: seed, N: sz.StudyUsers})
		population.Sample(population.Config{Seed: followUpSeed(seed), N: sz.FollowUpUsers,
			Mix: population.FollowUpMix(), IDPrefix: "f"})
		return time.Since(t), nil
	})
	if err != nil {
		return nil, err
	}

	var root *obs.Span
	if traced {
		root = obs.NewTrace("fpbench")
		ctx = obs.ContextWithSpan(ctx, root)
	}
	cache := vectors.NewCache()
	var out bytes.Buffer
	heap0 := liveHeapMB()
	cpu0 := readCPU()
	start := time.Now()
	mainDS, followUp, err := studyPipeline(ctx, &out, sz, seed, cache)
	wall := time.Since(start)
	root.End()
	cpu1 := readCPU()
	heap1 := liveHeapMB()
	// The datasets and the cache are what the pipeline leaves live.
	runtime.KeepAlive(mainDS)
	runtime.KeepAlive(followUp)
	runtime.KeepAlive(cache)
	if err != nil {
		res.Failed = 1
		return res, err
	}

	res.add("setup_s", percentile(setups, 50), len(setups))
	res.add("client.latency_p50_ms", ms(wall), 1)
	res.addTail("client.latency_tail_ms", []float64{ms(wall)})
	res.add("cpu_s", cpu1.busy-cpu0.busy, 1)
	res.add("live_heap_mb", heap1-heap0, 1)
	res.add("runtime.gc_cpu_s", cpu1.gc-cpu0.gc, 1)
	res.add("runtime.alloc_mb", (cpu1.alloc-cpu0.alloc)/1e6, 1)
	if root != nil {
		res.addStudyStages(root, cache.Stats(), cpu1.alloc-cpu0.alloc)
		if u := res.Metrics["study.unattributed_s"].Value; u > 0.02*wall.Seconds() {
			res.Health = append(res.Health, fmt.Sprintf("study stages leave %.3f s of %.3f s unattributed (over 2%%)", u, wall.Seconds()))
		}
	}

	if seed == core.MainStudySeed && sz == paperSizes(sz.Seconds) {
		if !bytes.Equal(out.Bytes(), studyReference) {
			res.Problems = append(res.Problems, "study output differs from testdata/study-20220325.txt")
		}
	} else if err := checkTable2(out.String(), mainDS); err != nil {
		res.Problems = append(res.Problems, err.Error())
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// checkTable2 checks the printed Table 2 against the streaming engine, an
// independent implementation of the same collation: replaying the main
// dataset's records must give the cluster counts and entropies printed.
func checkTable2(out string, ds *study.Dataset) error {
	eng := streaming.New(streaming.Config{Registry: obs.NewRegistry(), AMIRefreshEvery: -1})
	defer eng.Close()
	eng.Apply(ds.ToRecords(time.Time{}))
	rows := eng.Diversity().Rows
	tb := report.NewTable("Table 2 — diversity of audio fingerprints",
		"Vector", "Distinct", "Unique", "Entropy", "e_norm")
	for _, r := range rows[:len(vectors.All)+1] { // the vectors and Combined
		tb.AddRow(r.Name, r.Distinct, r.Unique, r.EntropyBits, r.Normalized)
	}
	if !strings.Contains(out, tb.String()) {
		return fmt.Errorf("printed Table 2 differs from the streaming engine's:\n%s", tb.String())
	}
	return nil
}
