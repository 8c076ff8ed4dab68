// Package bench holds the repository-level benchmark harness: one benchmark
// per table and figure of the paper's evaluation (timing the analysis that
// regenerates it over a shared simulated dataset), plus ablation benchmarks
// for the design choices called out in DESIGN.md §5. Full-scale artifact
// regeneration is `go run ./cmd/fpstudy`; paper-vs-measured numbers live in
// EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/collate"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/population"
	"repro/internal/study"
	"repro/internal/vectors"
	"repro/internal/webaudio"
)

// The shared benchmark dataset: smaller than the paper's campaign so each
// `go test -bench` run stays quick, but large enough that every analysis
// exercises its real code paths. Built once.
var (
	benchOnce sync.Once
	benchDS   *study.Dataset
	benchFU   *study.Dataset
	benchErr  error
)

func datasets(b *testing.B) (*study.Dataset, *study.Dataset) {
	b.Helper()
	benchOnce.Do(func() {
		benchDS, benchErr = study.Run(study.Config{
			Seed: core.MainStudySeed, Users: 500, Iterations: 16,
		})
		if benchErr != nil {
			return
		}
		benchFU, benchErr = study.Run(study.Config{
			Seed: core.FollowUpSeed, Users: 200, Iterations: 16,
			Mix: population.FollowUpMix(), IDPrefix: "f",
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDS, benchFU
}

// BenchmarkTable1 regenerates the per-user stability statistics.
func BenchmarkTable1(b *testing.B) {
	ds, _ := datasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := ds.Table1(); len(rows) != 7 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFigure3 regenerates the distinct-Hybrid-fingerprint histogram.
func BenchmarkFigure3(b *testing.B) {
	ds, _ := datasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := ds.Figure3(vectors.Hybrid)
		if len(h.Bins) == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// BenchmarkFigure5 regenerates the cluster-agreement sweep (the heaviest
// analysis: ⌊k/s⌋ graphs per vector per s plus pairwise AMI).
func BenchmarkFigure5(b *testing.B) {
	ds, _ := datasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.AgreementScores([]int{2, 4, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6 regenerates the fingerprint match scores.
func BenchmarkTable6(b *testing.B) {
	ds, _ := datasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := ds.MatchScores([]int{3, 8}); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable2 regenerates the audio-diversity table (collation graphs +
// entropy + combination vector).
func BenchmarkTable2(b *testing.B) {
	ds, _ := datasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := ds.Table2(); len(rows) != 8 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTable3 regenerates the Canvas/Fonts/UA diversity table.
func BenchmarkTable3(b *testing.B) {
	ds, _ := datasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := ds.Table3(); len(rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkUASpan regenerates the §4 W3C-refutation analysis.
func BenchmarkUASpan(b *testing.B) {
	ds, _ := datasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ds.UASpan(vectors.MergedSignals)
		if res.MultiUserUAs == 0 {
			b.Fatal("no multi-user UAs")
		}
	}
}

// BenchmarkAdditive regenerates the §4 additive-value computation.
func BenchmarkAdditive(b *testing.B) {
	ds, _ := datasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ds.AdditiveValue("Canvas", ds.Canvas)
		if r.WithAudio.EntropyBits < r.Base.EntropyBits {
			b.Fatal("additive value negative")
		}
	}
}

// BenchmarkFigure9 regenerates the cross-vector AMI heatmap.
func BenchmarkFigure9(b *testing.B) {
	ds, _ := datasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ds.PairwiseVectorAMI(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubsetRanking regenerates the §5 robustness check.
func BenchmarkSubsetRanking(b *testing.B) {
	ds, _ := datasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := ds.SubsetRanking(4); len(res.Rankings) != 4 {
			b.Fatal("wrong subset count")
		}
	}
}

// BenchmarkTable4 regenerates the follow-up Math-JS comparison.
func BenchmarkTable4(b *testing.B) {
	_, fu := datasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := fu.Table4(); len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkTable5 regenerates the follow-up per-platform comparison.
func BenchmarkTable5(b *testing.B) {
	_, fu := datasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := fu.Table5(10); len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFullEvaluation renders every artifact end to end, the fpstudy
// hot path.
func BenchmarkFullEvaluation(b *testing.B) {
	ds, fu := datasets(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.WriteAllExperiments(io.Discard, ds, fu); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStudySimulation measures the end-to-end cost of simulating a
// study (population + rendering + jitter), per 100 users.
func BenchmarkStudySimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := study.Run(study.Config{
			Seed: int64(i), Users: 100, Iterations: 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md §5).

// BenchmarkCollationInsert: string-keyed streaming inserts into the
// collation graph (interning plus the disjoint-set merge).
func BenchmarkCollationInsert(b *testing.B) {
	b.ReportAllocs()
	g := collate.NewGraph()
	for i := 0; i < b.N; i++ {
		g.AddObservation(fmt.Sprintf("u%d", i%5000), fmt.Sprintf("h%d", i%800))
	}
}

// BenchmarkHashFullBuffer vs BenchmarkHashSummary: hashing the full rendered
// window (what this repo and modern scripts do) versus reducing to the
// paper-era scalar sum first. The scalar is cheaper but collides more.
func BenchmarkHashFullBuffer(b *testing.B) {
	r := vectors.NewRunner(webaudio.DefaultTraits(), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(vectors.DC, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashSummary(b *testing.B) {
	r := vectors.NewRunner(webaudio.DefaultTraits(), 0)
	fp, err := r.Run(vectors.DC, 0)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]float32, 500)
	for i := range buf {
		buf[i] = float32(fp.Sum) / float32(i+1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := dsp.SumAbs(buf); s == 0 {
			b.Fatal("zero sum")
		}
	}
}

// ---------------------------------------------------------------------------
// Block-engine benchmarks (DESIGN.md §12): per-kernel microbenchmarks and the
// full-vector render, each run under the compiled block engine and the
// per-sample reference engine. The two are bit-identical by contract (the
// webaudio differential tests), so the delta here is pure speedup.

// benchEngines runs fn once per engine as a sub-benchmark.
func benchEngines(b *testing.B, fn func(b *testing.B)) {
	for _, eng := range []webaudio.Engine{webaudio.EngineBlock, webaudio.EngineReference} {
		b.Run(eng.String(), func(b *testing.B) {
			prev := webaudio.SetDefaultEngine(eng)
			defer webaudio.SetDefaultEngine(prev)
			fn(b)
		})
	}
}

// benchRenderGraph benchmarks steady-state quantum rendering of the graph
// build wires into a fresh context (compile + warmup excluded).
func benchRenderGraph(b *testing.B, build func(ctx *webaudio.Context)) {
	b.Helper()
	ctx := webaudio.NewContext(44100, webaudio.DefaultTraits())
	build(ctx)
	if err := ctx.RenderQuanta(2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.RenderQuanta(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelOscillator: the wavetable-read kernel alone.
func BenchmarkKernelOscillator(b *testing.B) {
	benchEngines(b, func(b *testing.B) {
		benchRenderGraph(b, func(ctx *webaudio.Context) {
			osc := ctx.NewOscillator(webaudio.Triangle, 10000)
			osc.Start(0)
			webaudio.Connect(osc, ctx.Destination())
		})
	})
}

// BenchmarkKernelBiquad: oscillator through a lowpass biquad.
func BenchmarkKernelBiquad(b *testing.B) {
	benchEngines(b, func(b *testing.B) {
		benchRenderGraph(b, func(ctx *webaudio.Context) {
			osc := ctx.NewOscillator(webaudio.Sawtooth, 2000)
			osc.Start(0)
			bq := ctx.NewBiquadFilter(webaudio.Lowpass)
			bq.Frequency.SetValue(8000)
			webaudio.Connect(osc, bq)
			webaudio.Connect(bq, ctx.Destination())
		})
	})
}

// BenchmarkKernelCompressor: the DC vector's hot node (kernel Log/Pow per
// sample — the fingerprint surface — dominates both engines).
func BenchmarkKernelCompressor(b *testing.B) {
	benchEngines(b, func(b *testing.B) {
		benchRenderGraph(b, func(ctx *webaudio.Context) {
			osc := ctx.NewOscillator(webaudio.Triangle, 10000)
			osc.Start(0)
			dc := ctx.NewDynamicsCompressor()
			webaudio.Connect(osc, dc)
			webaudio.Connect(dc, ctx.Destination())
		})
	})
}

// BenchmarkKernelDestinationMix: four oscillators fanned into the
// destination — the Merged Signals mix shape, exercising the once-per-block
// input mixer against per-sample virtual sumInputs.
func BenchmarkKernelDestinationMix(b *testing.B) {
	benchEngines(b, func(b *testing.B) {
		benchRenderGraph(b, func(ctx *webaudio.Context) {
			for _, f := range []float64{4000, 6000, 8000, 10000} {
				osc := ctx.NewOscillator(webaudio.Sine, f)
				osc.Start(0)
				webaudio.Connect(osc, ctx.Destination())
			}
		})
	})
}

// BenchmarkKernelAMGain: audio-rate param modulation (the AM vector's
// carrier gain), the a-rate blockSample path.
func BenchmarkKernelAMGain(b *testing.B) {
	benchEngines(b, func(b *testing.B) {
		benchRenderGraph(b, func(ctx *webaudio.Context) {
			carrier := ctx.NewOscillator(webaudio.Sine, 10000)
			carrier.Start(0)
			mod := ctx.NewOscillator(webaudio.Sine, 50)
			mod.Start(0)
			am := ctx.NewGain(0.5)
			webaudio.ConnectParam(mod, am.Gain)
			webaudio.Connect(carrier, am)
			webaudio.Connect(am, ctx.Destination())
		})
	})
}

// BenchmarkRenderVectors: all seven fingerprinting vectors end to end
// (graph build + render + hash) — the study's per-platform unit of work and
// the number the block engine exists to improve.
func BenchmarkRenderVectors(b *testing.B) {
	benchEngines(b, func(b *testing.B) {
		r := vectors.NewRunner(webaudio.DefaultTraits(), 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.RunAll(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAnalyserFFTSizes: analyser capture cost across fftSize choices —
// why fingerprint scripts settled on 2048.
func BenchmarkAnalyserFFTSizes(b *testing.B) {
	for _, size := range []int{512, 2048, 8192} {
		b.Run(fmt.Sprintf("fft%d", size), func(b *testing.B) {
			ctx := webaudio.NewContext(44100, webaudio.DefaultTraits())
			osc := ctx.NewOscillator(webaudio.Triangle, 10000)
			an, err := ctx.NewAnalyser(size)
			if err != nil {
				b.Fatal(err)
			}
			webaudio.Connect(osc, an)
			webaudio.Connect(an, ctx.Destination())
			osc.Start(0)
			if err := ctx.RenderQuanta(size / webaudio.RenderQuantum * 2); err != nil {
				b.Fatal(err)
			}
			out := make([]float32, an.FrequencyBinCount())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := an.GetFloatFrequencyData(out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
