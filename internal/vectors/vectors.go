// Package vectors implements the seven Web Audio fingerprinting vectors the
// paper studies (§2.1, Appendix B): the three known vectors — Dynamics
// Compressor (DC), Fast Fourier Transform (FFT) and Hybrid (DC+FFT) — and
// the four new ones the authors devised — Custom Signal, Merged Signals,
// Amplitude Modulation (AM) and Frequency Modulation (FM).
//
// Every vector builds its audio graph on the webaudio engine exactly as the
// corresponding browser script does (paper Figs. 1, 2, 6, 7, 8), renders it,
// and hashes the observed buffers with SHA-256. DC renders through a
// deterministic OfflineAudioContext; all other vectors observe a live
// (simulated) context whose capture timing depends on machine load — the
// captureOffset parameter — which is the mechanism behind the run-to-run
// fickleness the paper reports for every FFT-path vector.
package vectors

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"

	"repro/internal/dsp"
	"repro/internal/webaudio"
)

// ID identifies one fingerprinting vector.
type ID int

// The seven vectors, in the paper's column order.
const (
	DC ID = iota
	FFT
	Hybrid
	CustomSignal
	MergedSignals
	AM
	FM
)

// All lists every vector in the paper's order.
var All = []ID{DC, FFT, Hybrid, CustomSignal, MergedSignals, AM, FM}

// FFTBased lists the six vectors whose pipeline includes an AnalyserNode
// (everything but DC); these are the vectors exhibiting fickleness.
var FFTBased = []ID{FFT, Hybrid, CustomSignal, MergedSignals, AM, FM}

// String returns the vector's name as used in the paper's tables.
func (id ID) String() string {
	switch id {
	case DC:
		return "DC"
	case FFT:
		return "FFT"
	case Hybrid:
		return "Hybrid"
	case CustomSignal:
		return "Custom Signal"
	case MergedSignals:
		return "Merged Signals"
	case AM:
		return "AM"
	case FM:
		return "FM"
	}
	return fmt.Sprintf("ID(%d)", int(id))
}

// ParseID resolves a vector name (as printed by String) back to its ID.
func ParseID(s string) (ID, error) {
	for _, id := range All {
		if id.String() == s {
			return id, nil
		}
	}
	return 0, fmt.Errorf("vectors: unknown vector %q", s)
}

// Fingerprint is the output of running one vector once.
type Fingerprint struct {
	// Vector identifies which method produced the fingerprint.
	Vector ID `json:"vector"`
	// Hash is the hex SHA-256 digest of the observed audio data — the
	// elementary fingerprint the collation graph operates on.
	Hash string `json:"hash"`
	// Sum is the paper-style scalar summary (Σ|x| of the DC render window,
	// or Σ of finite spectrum values for FFT captures); useful for
	// debugging and telemetry but not part of identity.
	Sum float64 `json:"sum"`
}

// Runner executes fingerprinting vectors against one simulated audio stack.
// A Runner is cheap; construct one per (traits, sample rate) pair.
type Runner struct {
	traits webaudio.Traits
	rate   float64

	// engine, when engineSet, pins the DSP engine this runner's contexts
	// render under instead of the process-wide default, so tests compare
	// engines without flipping webaudio.SetDefaultEngine under concurrent
	// renders (SetEngine, export_test.go).
	engine    webaudio.Engine
	engineSet bool
}

// NewRunner returns a Runner for the given platform traits. A zero sample
// rate defaults to 44100 Hz.
func NewRunner(traits webaudio.Traits, sampleRate float64) *Runner {
	if sampleRate == 0 {
		sampleRate = 44100
	}
	return &Runner{traits: traits, rate: sampleRate}
}

// newOffline constructs an offline context honoring the engine override.
func (r *Runner) newOffline(length int, rate float64) *webaudio.OfflineContext {
	oc := webaudio.NewOfflineContext(length, rate, r.traits)
	if r.engineSet {
		oc.SetEngine(r.engine)
	}
	return oc
}

// newRealtime constructs a realtime sim honoring the engine override.
func (r *Runner) newRealtime() *webaudio.RealtimeSim {
	rt := webaudio.NewRealtimeSim(r.rate, r.traits)
	if r.engineSet {
		rt.SetEngine(r.engine)
	}
	return rt
}

// Graph constants shared by the vectors, matching the published scripts.
const (
	toneHz = 10000 // triangle tone both classic vectors use
	// dcRenderFrames is the offline render length. The FingerprintJS DC
	// script renders one second, but its fingerprint reads only samples
	// [dcWindowStart, dcWindowEnd), so the render stops at the window's
	// end: dcRenderQuanta quanta, the whole quanta before the window under
	// the unobserved hint. The recording still starts at frame 0, because
	// farbling keys its noise on a sample's index in the rendered buffer.
	dcRenderFrames = dcWindowEnd
	dcWindowStart  = 4500
	dcWindowEnd    = 5000
	// dcRenderQuanta is dcRenderFrames rounded up to whole quanta: what
	// runDC renders and the shadow probe audits.
	dcRenderQuanta = (dcRenderFrames + webaudio.RenderQuantum - 1) / webaudio.RenderQuantum
	// captureBaseQuanta is the nominal observation point of the live-context
	// vectors: the third ScriptProcessor event (3 × 4096 frames / 128).
	captureBaseQuanta = 96
	// spQuanta is the ScriptProcessor buffer length in render quanta.
	spQuanta = webaudio.ScriptProcessorBufferSize / webaudio.RenderQuantum
)

// Run executes vector id at one capture offset: RunOffsets with a single
// offset. captureOffset is the load-induced scheduling slack (in render
// quanta) at the moment the script observes the graph; it is ignored by
// DC, whose offline render is deterministic.
func (r *Runner) Run(id ID, captureOffset int) (Fingerprint, error) {
	fps, err := r.RunOffsets(id, []int{captureOffset})
	if err != nil {
		return Fingerprint{}, err
	}
	return fps[0], nil
}

// RunOffsets executes vector id once per capture offset, all from one
// render pass, and returns the fingerprints aligned with offsets. The pass
// builds the graph once, renders forward to each capture point in turn and
// captures there exactly as a fresh Run at that offset would, so every
// fingerprint is bit-identical to its Run. Quanta no capture of the pass
// reads render under the unobserved hint. offsets must be non-negative
// and ascending. DC renders once whatever the offsets; an empty list
// renders nothing.
func (r *Runner) RunOffsets(id ID, offsets []int) ([]Fingerprint, error) {
	for i, off := range offsets {
		if off < 0 {
			return nil, fmt.Errorf("vectors: negative capture offset %d", off)
		}
		if i > 0 && off < offsets[i-1] {
			return nil, fmt.Errorf("vectors: capture offsets not ascending (%d after %d)", off, offsets[i-1])
		}
	}
	if len(offsets) == 0 {
		return nil, nil
	}
	return timeRender(id, func() ([]Fingerprint, error) { return r.renderPass(id, offsets) })
}

// renderPass is RunOffsets' one capture loop (timing handled by the
// caller).
func (r *Runner) renderPass(id ID, offsets []int) ([]Fingerprint, error) {
	fps := make([]Fingerprint, len(offsets))
	if id == DC {
		fp, err := r.runDC()
		if err != nil {
			return nil, err
		}
		for i := range fps {
			fps[i] = fp
		}
		return fps, nil
	}
	rt := r.newRealtime()
	g, err := buildLiveGraph(rt, id)
	if err != nil {
		return nil, err
	}
	for i, off := range offsets {
		if g.lastBuf != nil {
			if err := advanceTail(rt, captureBaseQuanta+off, offsets); err != nil {
				return nil, err
			}
		}
		if err := rt.CaptureAfter(captureBaseQuanta, off); err != nil {
			return nil, err
		}
		fps[i] = g.capture(id)
	}
	return fps, nil
}

// readBuffer is the ScriptProcessor buffer the Fig. 6 tail's capture at
// offset off reads: the last one complete at capture point
// c = captureBaseQuanta + off, buffer c/spQuanta − 1, which spans quanta
// [spQuanta·b, spQuanta·(b+1)).
func readBuffer(off int) int { return (captureBaseQuanta+off)/spQuanta - 1 }

// advanceTail renders a Fig. 6 tail pass that captures at offsets forward
// to capture point c. The compressor's output reaches a fingerprint only
// through the ScriptProcessor buffers the pass's captures read, so quanta
// in those buffers render in full and every other quantum renders under
// the unobserved hint.
func advanceTail(rt *webaudio.RealtimeSim, c int, offsets []int) error {
	for at := int(rt.CurrentFrame() / webaudio.RenderQuantum); at < c; {
		b := at / spQuanta
		end := min(c, (b+1)*spQuanta)
		render := rt.RenderUnobserved
		if slices.ContainsFunc(offsets, func(off int) bool { return readBuffer(off) == b }) {
			render = rt.RenderQuanta
		}
		if err := render(end - at); err != nil {
			return err
		}
		at = end
	}
	return nil
}

// RunAll executes every vector with the same capture offset and returns the
// fingerprints in All order.
func (r *Runner) RunAll(captureOffset int) ([]Fingerprint, error) {
	out := make([]Fingerprint, 0, len(All))
	for _, id := range All {
		fp, err := r.Run(id, captureOffset)
		if err != nil {
			return nil, err
		}
		out = append(out, fp)
	}
	return out, nil
}

// runDC implements the Dynamics Compressor vector (paper Fig. 1):
// OfflineAudioContext → triangle oscillator (10 kHz) → DynamicsCompressor →
// destination; the fingerprint hashes the rendered samples in [4500, 5000).
// The quanta before the window render under the unobserved hint.
//
// Note the script *forces* the offline context to 44100 Hz
// (OfflineAudioContext(1, 44100, 44100)), so unlike the live-context vectors
// DC is immune to the device's native sample rate — one of the reasons the
// FFT-path vectors carry more entropy than DC in the paper's Table 2.
func (r *Runner) runDC() (Fingerprint, error) {
	oc := r.newOffline(dcRenderFrames, 44100)
	buildDCGraph(oc.Context)
	if err := oc.RenderUnobserved(dcWindowStart / webaudio.RenderQuantum); err != nil {
		return Fingerprint{}, err
	}
	buf, err := oc.StartRendering()
	if err != nil {
		return Fingerprint{}, err
	}
	window := buf[dcWindowStart:dcWindowEnd]
	return Fingerprint{
		Vector: DC,
		Hash:   hashBytes(dsp.AppendFloat32Bytes(nil, window)),
		Sum:    dsp.SumAbs(window),
	}, nil
}

// buildDCGraph wires the Fig. 1 graph (triangle oscillator →
// DynamicsCompressor → destination) on ctx. The oscillator sounds from
// frame 0, as the script's start(0) has it.
func buildDCGraph(ctx *webaudio.Context) {
	osc := ctx.NewOscillator(webaudio.Triangle, toneHz)
	comp := ctx.NewDynamicsCompressor()
	webaudio.Connect(osc, comp)
	webaudio.Connect(comp, ctx.Destination())
}

// liveGraph is one live-context vector's graph and its capture taps, built
// once per render pass. freq, the spectrum, is held in the graph itself
// and data is the pass's byte buffer; every capture reuses both, so a
// capture allocates only its digest.
type liveGraph struct {
	analyser *webaudio.AnalyserNode
	// lastBuf retains the script processor's latest input buffer (the
	// compressor output) for the Fig. 6 tail; nil for FFT, which hashes
	// the spectrum alone.
	lastBuf []float32
	freq    [webaudio.FrequencyBinCount]float32
	data    []byte
}

// buildLiveGraph wires the graph of live-context vector id on rt: the FFT
// vector (paper Fig. 2) or, for the hybrid family, the vector's signal
// stage feeding the Fig. 6 tail.
func buildLiveGraph(rt *webaudio.RealtimeSim, id ID) (*liveGraph, error) {
	var g *liveGraph
	if id == FFT {
		g = &liveGraph{analyser: buildFFTGraph(rt)}
	} else {
		signal, err := buildHybridSignal(rt, id)
		if err != nil {
			return nil, err
		}
		g = buildHybridTail(rt, signal)
	}
	g.data = make([]byte, 0, 4*(len(g.freq)+len(g.lastBuf)))
	return g, nil
}

// capture fingerprints g at the current render point. A spectrum read
// keeps no state, so it equals the first capture of a fresh context and
// earlier captures of the pass leave no trace. The FFT vector (paper
// Fig. 2) hashes getFloatFrequencyData output read from inside an
// audioprocess callback; the Fig. 6 tail hashes the spectrum and the
// retained compressor buffer together, the FFT and DC halves of the hybrid
// family.
func (g *liveGraph) capture(id ID) Fingerprint {
	g.analyser.GetFloatFrequencyData(&g.freq)
	g.data = dsp.AppendFloat32Bytes(g.data[:0], g.freq[:])
	sum := sumFinite(g.freq[:])
	if g.lastBuf != nil {
		g.data = dsp.AppendFloat32Bytes(g.data, g.lastBuf)
		sum += dsp.SumAbs(g.lastBuf)
	}
	return Fingerprint{Vector: id, Hash: hashBytes(g.data), Sum: sum}
}

// buildFFTGraph wires the Fig. 2 graph (triangle oscillator → Analyser →
// ScriptProcessor → Gain(0) → destination) and returns the analyser tap.
func buildFFTGraph(rt *webaudio.RealtimeSim) *webaudio.AnalyserNode {
	osc := rt.NewOscillator(webaudio.Triangle, toneHz)
	an := rt.NewAnalyser()
	sp := rt.NewScriptProcessor()
	mute := rt.NewGain(0)
	webaudio.Connect(osc, an)
	webaudio.Connect(an, sp)
	webaudio.Connect(sp, mute)
	webaudio.Connect(mute, rt.Destination())
	return an
}

// buildHybridTail wires signal → Analyser → DynamicsCompressor →
// ScriptProcessor → Gain(0) → destination (paper Fig. 6) and returns the
// taps the fingerprint reads: the analyser, and the script processor's
// retained copy of the last compressor output buffer.
func buildHybridTail(rt *webaudio.RealtimeSim, signal webaudio.Node) *liveGraph {
	an := rt.NewAnalyser()
	comp := rt.NewDynamicsCompressor()
	sp := rt.NewScriptProcessor()
	mute := rt.NewGain(0)
	webaudio.Connect(signal, an)
	webaudio.Connect(an, comp)
	webaudio.Connect(comp, sp)
	webaudio.Connect(sp, mute)
	webaudio.Connect(mute, rt.Destination())
	g := &liveGraph{analyser: an, lastBuf: make([]float32, webaudio.ScriptProcessorBufferSize)}
	sp.OnAudioProcess = func(inputBuffer []float32) {
		copy(g.lastBuf, inputBuffer)
	}
	return g
}

// customWaveCoefficients are the fixed 12-element real/imag arrays of the
// Custom Signal vector: real values "randomly selected between 0 and 1" once
// at script-authoring time (constants thereafter, like the published code),
// imaginary values alternating between 0 and π/2.
func customWaveCoefficients() *webaudio.PeriodicWave {
	real := []float64{
		0.7264, 0.0835, 0.4138, 0.5515, 0.9284, 0.1931,
		0.6204, 0.3379, 0.8450, 0.0647, 0.4982, 0.7716,
	}
	imag := make([]float64, len(real))
	for i := range imag {
		if i%2 == 1 {
			imag[i] = math.Pi / 2
		}
	}
	return &webaudio.PeriodicWave{Real: real, Imag: imag}
}

// buildHybridSignal wires the signal stage feeding the Fig. 6 tail for one
// hybrid-family vector and returns the node the tail should consume. Hybrid
// and the four derived vectors share the tail and differ only in this
// signal:
//
//   - Hybrid: single triangle oscillator at 10 kHz (Fig. 6)
//   - CustomSignal: custom PeriodicWave oscillator (App. B)
//   - MergedSignals: sine 440 + square 1880 + triangle 10000 + sawtooth
//     22000 through a ChannelMerger (Fig. 7)
//   - AM: triangle 10 kHz and square 1880 Hz carriers, amplitude-modulated
//     by a 440 Hz sine through gain-parameter connections (Fig. 8)
//   - FM: the same arrangement with the modulator driving the carriers'
//     frequency parameters instead (App. B)
func buildHybridSignal(rt *webaudio.RealtimeSim, id ID) (webaudio.Node, error) {
	var signal webaudio.Node

	switch id {
	case Hybrid:
		signal = rt.NewOscillator(webaudio.Triangle, toneHz)

	case CustomSignal:
		osc := rt.NewOscillator(webaudio.Custom, toneHz)
		osc.SetPeriodicWave(customWaveCoefficients())
		signal = osc

	case MergedSignals:
		merger := rt.NewChannelMerger()
		for _, src := range []struct {
			typ  webaudio.OscillatorType
			freq float64
		}{
			{webaudio.Sine, 440},
			{webaudio.Square, 1880},
			{webaudio.Triangle, 10000},
			{webaudio.Sawtooth, 22000},
		} {
			webaudio.Connect(rt.NewOscillator(src.typ, src.freq), merger)
		}
		signal = merger

	case AM:
		// Carriers through unit gains whose gain params are modulated by a
		// 440 Hz sine scaled by a depth gain of 60 (Fig. 8's "Gain = 60").
		mod := rt.NewOscillator(webaudio.Sine, 440)
		depth := rt.NewGain(60)
		webaudio.Connect(mod, depth)
		mix := rt.NewChannelMerger()
		for _, src := range []struct {
			typ  webaudio.OscillatorType
			freq float64
		}{
			{webaudio.Triangle, toneHz},
			{webaudio.Square, 1880},
		} {
			o := rt.NewOscillator(src.typ, src.freq)
			carrier := rt.NewGain(1) // Fig. 8's "Carrier Gain = 1"
			webaudio.ConnectParam(depth, carrier.Gain)
			webaudio.Connect(o, carrier)
			webaudio.Connect(carrier, mix)
		}
		signal = mix

	case FM:
		mod := rt.NewOscillator(webaudio.Sine, 440)
		depth := rt.NewGain(60)
		webaudio.Connect(mod, depth)
		mix := rt.NewChannelMerger()
		for _, src := range []struct {
			typ  webaudio.OscillatorType
			freq float64
		}{
			{webaudio.Triangle, toneHz},
			{webaudio.Square, 1880},
		} {
			o := rt.NewOscillator(src.typ, src.freq)
			webaudio.ConnectParam(depth, o.Frequency)
			webaudio.Connect(o, mix)
		}
		signal = mix

	default:
		return nil, fmt.Errorf("vectors: %v is not in the hybrid family", id)
	}

	return signal, nil
}

// hashBytes returns the hex SHA-256 of data. Encoding into a stack array
// leaves the returned string as the only allocation.
func hashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// sumFinite sums the finite entries of a spectrum (dB bins can be -Inf).
func sumFinite(v []float32) float64 {
	var s float64
	for _, x := range v {
		f := float64(x)
		if !math.IsInf(f, 0) && !math.IsNaN(f) {
			s += f
		}
	}
	return s
}
