package webaudio

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx"
)

// The block engine's correctness contract is bit-identity with the
// per-sample reference engine: not "close", the same float32s. This file
// enforces it the property-testing way — seeded random graphs covering
// every node type, audio-rate modulation of gain and frequency, and
// start/stop edges, rendered by both engines and compared bit for bit.

// diffTraitsPool are the trait corners the differential test sweeps:
// the reference config, the float32-mixing/fdlibm stack, a LUT kernel with
// denormal flushing, a compressor/oscillator perturbation variant, and a
// split FFT kernel.
func diffTraitsPool() []Traits {
	mix32 := DefaultTraits()
	mix32.Kernel = mathx.Fdlib
	mix32.MixPrecision = Mix32

	lut := DefaultTraits()
	lut.Kernel = mathx.Lut1024
	lut.FlushDenormals = true

	perturbed := DefaultTraits()
	perturbed.CompressorKneeEps = 3.1e-7
	perturbed.CompressorPreDelay = 262
	perturbed.OscillatorPhaseOffset = 1.9e-6

	splitFFT := DefaultTraits()
	splitFFT.FFTKernel = mathx.Poly7

	return []Traits{DefaultTraits(), mix32, lut, perturbed, splitFFT}
}

// diffGraph is what buildRandomGraph wires into a context: handles the
// comparison needs beyond the destination recording.
type diffGraph struct {
	analyser *AnalyserNode
	spEvents [][]float32
}

// buildRandomGraph wires a random but deterministic (seed-driven) graph
// into ctx. Both engines' contexts call it with identically seeded RNGs,
// so they build the same graph.
func buildRandomGraph(t *testing.T, ctx *Context, rng *rand.Rand) *diffGraph {
	t.Helper()
	g := &diffGraph{}

	// Sources: 1-3 standard or custom-wave oscillators, with random start
	// times and optional stops that straddle quantum boundaries.
	nSrc := 1 + rng.Intn(3)
	sources := make([]Node, 0, nSrc)
	for s := 0; s < nSrc; s++ {
		switch rng.Intn(3) {
		case 0, 1: // standard oscillator
			typ := OscillatorType(rng.Intn(4))
			freq := 200 + 4800*rng.Float64()
			if rng.Intn(6) == 0 { // up to 2× Nyquist: the clamp keeps |inc| ≤ 0.5
				freq = 20000 + 24100*rng.Float64()
			}
			o := ctx.NewOscillator(typ, freq)
			if rng.Intn(3) == 0 { // FM: modulator through a depth gain into the frequency
				mod := ctx.NewOscillator(Sine, 20+500*rng.Float64())
				mod.Start(0.004 * rng.Float64())
				depth := ctx.NewGain(10 + 200*rng.Float64())
				Connect(mod, depth)
				ConnectParam(depth, o.Frequency)
			}
			o.Start(0.004 * rng.Float64())
			if rng.Intn(2) == 0 {
				o.Stop(0.005 + 0.010*rng.Float64())
			}
			sources = append(sources, o)
		case 2: // custom periodic wave
			n := 2 + rng.Intn(6)
			w := &PeriodicWave{
				Real:                 make([]float64, n),
				Imag:                 make([]float64, n),
				DisableNormalization: rng.Intn(4) == 0,
			}
			for h := 1; h < n; h++ {
				w.Real[h] = rng.Float64()*2 - 1
				w.Imag[h] = rng.Float64()*2 - 1
			}
			o := ctx.NewOscillator(Sine, 300+2000*rng.Float64())
			o.SetPeriodicWave(w)
			o.Start(0.004 * rng.Float64())
			sources = append(sources, o)
		}
	}

	// Join multiple sources through a merger half the time, otherwise fan
	// them all into the first processor (exercising the mixer path).
	var head Node
	if len(sources) > 1 && rng.Intn(2) == 0 {
		m := ctx.NewChannelMerger()
		for _, s := range sources {
			Connect(s, m)
		}
		head = m
	}

	connectHead := func(dst Node) {
		if head != nil {
			Connect(head, dst)
		} else {
			for _, s := range sources {
				Connect(s, dst)
			}
		}
		head = dst
	}

	// Processor chain: 1-3 random stages.
	nProc := 1 + rng.Intn(3)
	for p := 0; p < nProc; p++ {
		switch rng.Intn(2) {
		case 0: // gain: constant or audio-rate modulated
			gn := ctx.NewGain(0.2 + rng.Float64())
			if rng.Intn(2) == 0 { // AM: modulator oscillator into the param
				mod := ctx.NewOscillator(Sine, 20+100*rng.Float64())
				mod.Start(0)
				ConnectParam(mod, gn.Gain)
			}
			connectHead(gn)
		case 1: // compressor
			dc := ctx.NewDynamicsCompressor()
			if rng.Intn(2) == 0 {
				dc.Threshold.SetValue(-40 + 20*rng.Float64())
				dc.Ratio.SetValue(4 + 12*rng.Float64())
			}
			connectHead(dc)
		}
	}

	// Optional analysis tail: analyser and/or script processor before the
	// destination, mirroring the real fingerprinting scripts.
	if rng.Intn(2) == 0 {
		an, err := ctx.NewAnalyser(512)
		if err != nil {
			t.Fatalf("NewAnalyser: %v", err)
		}
		connectHead(an)
		g.analyser = an
	}
	if rng.Intn(3) == 0 {
		sp, err := ctx.NewScriptProcessor(512)
		if err != nil {
			t.Fatalf("NewScriptProcessor: %v", err)
		}
		sp.OnAudioProcess = func(ev AudioProcessEvent) {
			g.spEvents = append(g.spEvents, append([]float32(nil), ev.InputBuffer...))
		}
		connectHead(sp)
	}

	connectHead(ctx.Destination())
	return g
}

// TestEngineDifferential renders seeded random graphs with both engines and
// requires bit-identical output: the rendered buffer, every script-processor
// event buffer, and the analyser spectrum.
func TestEngineDifferential(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 25
	}
	pool := diffTraitsPool()
	const frames = 20 * RenderQuantum

	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tr := pool[seed%len(pool)]

			ctxB := NewContext(44100, tr)
			ctxB.SetEngine(EngineBlock)
			gB := buildRandomGraph(t, ctxB, rand.New(rand.NewSource(int64(seed))))

			ctxR := NewContext(44100, tr)
			ctxR.SetEngine(EngineReference)
			gR := buildRandomGraph(t, ctxR, rand.New(rand.NewSource(int64(seed))))

			outB, err := ctxB.RenderFrames(frames)
			if err != nil {
				t.Fatalf("block render: %v", err)
			}
			outR, err := ctxR.RenderFrames(frames)
			if err != nil {
				t.Fatalf("reference render: %v", err)
			}
			for i := range outR {
				if math.Float32bits(outB[i]) != math.Float32bits(outR[i]) {
					t.Fatalf("sample %d: block %v (%#08x) != reference %v (%#08x)",
						i, outB[i], math.Float32bits(outB[i]), outR[i], math.Float32bits(outR[i]))
				}
			}

			if len(gB.spEvents) != len(gR.spEvents) {
				t.Fatalf("script processor events: block %d != reference %d",
					len(gB.spEvents), len(gR.spEvents))
			}
			for e := range gR.spEvents {
				for i := range gR.spEvents[e] {
					if math.Float32bits(gB.spEvents[e][i]) != math.Float32bits(gR.spEvents[e][i]) {
						t.Fatalf("script event %d sample %d: block %v != reference %v",
							e, i, gB.spEvents[e][i], gR.spEvents[e][i])
					}
				}
			}

			if gB.analyser != nil {
				specB := make([]float32, gB.analyser.FrequencyBinCount())
				specR := make([]float32, gR.analyser.FrequencyBinCount())
				if err := gB.analyser.GetFloatFrequencyData(specB); err != nil {
					t.Fatalf("block spectrum: %v", err)
				}
				if err := gR.analyser.GetFloatFrequencyData(specR); err != nil {
					t.Fatalf("reference spectrum: %v", err)
				}
				for i := range specR {
					if math.Float32bits(specB[i]) != math.Float32bits(specR[i]) {
						t.Fatalf("spectrum bin %d: block %v != reference %v", i, specB[i], specR[i])
					}
				}
			}
		})
	}
}
