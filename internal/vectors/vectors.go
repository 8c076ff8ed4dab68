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

	"repro/internal/dsp"
	"repro/internal/hashx"
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
	if name, ok := extendedString(id); ok {
		return name
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
	for _, id := range Extended {
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

// Hasher selects the digest applied to observed audio buffers.
type Hasher int

const (
	// SHA256 is the default digest (64 hex chars).
	SHA256 Hasher = iota
	// Murmur3 is FingerprintJS's MurmurHash3 x64/128 (32 hex chars) — the
	// digest the in-the-wild scripts actually compute, for wire-compatible
	// fingerprint strings.
	Murmur3
)

// Runner executes fingerprinting vectors against one simulated audio stack.
// A Runner is cheap; construct one per (traits, sample rate) pair.
type Runner struct {
	traits webaudio.Traits
	rate   float64
	hasher Hasher

	// engine, when engineSet, pins the DSP engine this runner's contexts
	// render under instead of the process-wide default. The shadow auditor
	// uses this to re-render samples through the reference engine without
	// flipping webaudio.SetDefaultEngine under concurrent renders.
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

// SetHasher selects the fingerprint digest (default SHA256).
func (r *Runner) SetHasher(h Hasher) { r.hasher = h }

// SetEngine pins the DSP engine this runner renders under (by default new
// contexts follow webaudio.DefaultEngine).
func (r *Runner) SetEngine(e webaudio.Engine) { r.engine, r.engineSet = e, true }

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

// digest hashes observed bytes with the runner's hasher.
func (r *Runner) digest(data []byte) string {
	if r.hasher == Murmur3 {
		return hashx.HexDigest(data, 31) // FingerprintJS's default seed
	}
	return hashBytes(data)
}

// Graph constants shared by the vectors, matching the published scripts.
const (
	toneHz = 10000 // triangle tone both classic vectors use
	// dcRenderFrames is the offline render length. The FingerprintJS DC
	// script renders one second; samples [4500, 5000) form the fingerprint
	// window, so rendering past that point is sufficient and equivalent.
	dcRenderFrames = 8192
	dcWindowStart  = 4500
	dcWindowEnd    = 5000
	// captureBaseQuanta is the nominal observation point of the live-context
	// vectors: the third ScriptProcessor event (3 × 4096 frames / 128).
	captureBaseQuanta = 96
	fftSize           = 2048
	spBufferSize      = 4096
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
// fingerprint is bit-identical to its Run. offsets must be non-negative
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
		if err := rt.CaptureAfter(captureBaseQuanta, off); err != nil {
			return nil, err
		}
		if fps[i], err = r.capture(g, id); err != nil {
			return nil, err
		}
	}
	return fps, nil
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
//
// Note the script *forces* the offline context to 44100 Hz
// (OfflineAudioContext(1, 44100, 44100)), so unlike the live-context vectors
// DC is immune to the device's native sample rate — one of the reasons the
// FFT-path vectors carry more entropy than DC in the paper's Table 2.
func (r *Runner) runDC() (Fingerprint, error) {
	oc := r.newOffline(dcRenderFrames, 44100)
	buildDCGraph(oc.Context)
	buf, err := oc.StartRendering()
	if err != nil {
		return Fingerprint{}, err
	}
	window := buf[dcWindowStart:dcWindowEnd]
	return Fingerprint{
		Vector: DC,
		Hash:   r.digest(dsp.AppendFloat32Bytes(nil, window)),
		Sum:    dsp.SumAbs(window),
	}, nil
}

// buildDCGraph wires the Fig. 1 graph (triangle oscillator →
// DynamicsCompressor → destination) on ctx and starts the source.
func buildDCGraph(ctx *webaudio.Context) {
	osc := ctx.NewOscillator(webaudio.Triangle, toneHz)
	comp := ctx.NewDynamicsCompressor()
	webaudio.Connect(osc, comp)
	webaudio.Connect(comp, ctx.Destination())
	osc.Start(0)
}

// liveGraph is one live-context vector's graph and its capture taps, built
// once per render pass. freq and data are the pass's spectrum and byte
// buffers, reused by every capture, so a capture allocates only its
// digest.
type liveGraph struct {
	analyser *webaudio.AnalyserNode
	// lastBuf retains the script processor's latest input buffer (the
	// compressor output) for the Fig. 6 tail; nil for FFT, which hashes
	// the spectrum alone.
	lastBuf []float32
	freq    []float32
	data    []byte
}

// buildLiveGraph wires the graph of live-context vector id on rt: the FFT
// vector (paper Fig. 2) or, for the hybrid family and the extension
// vectors, the vector's signal stage feeding the Fig. 6 tail.
func buildLiveGraph(rt *webaudio.RealtimeSim, id ID) (*liveGraph, error) {
	var g *liveGraph
	if id == FFT {
		an, err := buildFFTGraph(rt)
		if err != nil {
			return nil, err
		}
		g = &liveGraph{analyser: an}
	} else {
		var signal webaudio.Node
		var err error
		if _, ext := extendedString(id); ext {
			signal, err = buildExtendedSignal(rt, id)
		} else {
			signal, err = buildHybridSignal(rt, id)
		}
		if err != nil {
			return nil, err
		}
		if g, err = buildHybridTail(rt, signal); err != nil {
			return nil, err
		}
	}
	g.freq = make([]float32, g.analyser.FrequencyBinCount())
	g.data = make([]byte, 0, 4*(len(g.freq)+len(g.lastBuf)))
	return g, nil
}

// capture fingerprints g at the current render point exactly as the first
// capture of a fresh context would: the analyser's smoothing is reset
// first, so earlier captures of the pass leave no trace. The FFT vector
// (paper Fig. 2) hashes getFloatFrequencyData output read from inside an
// audioprocess callback; the Fig. 6 tail hashes the spectrum and the
// retained compressor buffer together, the FFT and DC halves of the hybrid
// family.
func (r *Runner) capture(g *liveGraph, id ID) (Fingerprint, error) {
	g.analyser.ResetSmoothing()
	if err := g.analyser.GetFloatFrequencyData(g.freq); err != nil {
		return Fingerprint{}, err
	}
	g.data = dsp.AppendFloat32Bytes(g.data[:0], g.freq)
	sum := sumFinite(g.freq)
	if g.lastBuf != nil {
		g.data = dsp.AppendFloat32Bytes(g.data, g.lastBuf)
		sum += dsp.SumAbs(g.lastBuf)
	}
	return Fingerprint{Vector: id, Hash: r.digest(g.data), Sum: sum}, nil
}

// buildFFTGraph wires the Fig. 2 graph (triangle oscillator → Analyser →
// ScriptProcessor → Gain(0) → destination) and returns the analyser tap.
func buildFFTGraph(rt *webaudio.RealtimeSim) (*webaudio.AnalyserNode, error) {
	osc := rt.NewOscillator(webaudio.Triangle, toneHz)
	an, err := rt.NewAnalyser(fftSize)
	if err != nil {
		return nil, err
	}
	sp, err := rt.NewScriptProcessor(spBufferSize)
	if err != nil {
		return nil, err
	}
	mute := rt.NewGain(0)
	webaudio.Connect(osc, an)
	webaudio.Connect(an, sp)
	webaudio.Connect(sp, mute)
	webaudio.Connect(mute, rt.Destination())
	osc.Start(0)
	return an, nil
}

// buildHybridTail wires signal → Analyser → DynamicsCompressor →
// ScriptProcessor → Gain(0) → destination (paper Fig. 6) and returns the
// taps the fingerprint reads: the analyser, and the script processor's
// retained copy of the last compressor output buffer.
func buildHybridTail(rt *webaudio.RealtimeSim, signal webaudio.Node) (*liveGraph, error) {
	an, err := rt.NewAnalyser(fftSize)
	if err != nil {
		return nil, err
	}
	comp := rt.NewDynamicsCompressor()
	sp, err := rt.NewScriptProcessor(spBufferSize)
	if err != nil {
		return nil, err
	}
	mute := rt.NewGain(0)
	webaudio.Connect(signal, an)
	webaudio.Connect(an, comp)
	webaudio.Connect(comp, sp)
	webaudio.Connect(sp, mute)
	webaudio.Connect(mute, rt.Destination())
	g := &liveGraph{analyser: an, lastBuf: make([]float32, spBufferSize)}
	sp.OnAudioProcess = func(e webaudio.AudioProcessEvent) {
		copy(g.lastBuf, e.InputBuffer)
	}
	return g, nil
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
		osc := rt.NewOscillator(webaudio.Triangle, toneHz)
		osc.Start(0)
		signal = osc

	case CustomSignal:
		osc := rt.NewOscillator(webaudio.Custom, toneHz)
		osc.SetPeriodicWave(customWaveCoefficients())
		osc.Start(0)
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
			o := rt.NewOscillator(src.typ, src.freq)
			o.Start(0)
			webaudio.Connect(o, merger)
		}
		signal = merger

	case AM:
		// Carriers through unit gains whose gain params are modulated by a
		// 440 Hz sine scaled by a depth gain of 60 (Fig. 8's "Gain = 60").
		mod := rt.NewOscillator(webaudio.Sine, 440)
		mod.Start(0)
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
			o.Start(0)
			carrier := rt.NewGain(1) // Fig. 8's "Carrier Gain = 1"
			webaudio.ConnectParam(depth, carrier.Gain)
			webaudio.Connect(o, carrier)
			webaudio.Connect(carrier, mix)
		}
		signal = mix

	case FM:
		mod := rt.NewOscillator(webaudio.Sine, 440)
		mod.Start(0)
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
			o.Start(0)
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
