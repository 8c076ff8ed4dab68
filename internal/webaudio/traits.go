// Package webaudio is an offline implementation of the subset of the W3C Web
// Audio API that browser-fingerprinting scripts exercise: oscillators
// (including custom PeriodicWave), gain nodes with audio-rate parameter
// modulation, a dynamics compressor, an FFT analyser, a script processor and
// a channel merger, rendered through an offline audio context in render
// quanta of 128 frames, with a float32 sample pipeline — the same processing
// model real browser engines use.
//
// The engine is parameterized by Traits: the knobs along which real audio
// stacks differ (math kernel lineage, denormal handling, mixing precision,
// compressor curve details). Two engines with equal Traits render
// bit-identical buffers; engines with different Traits render measurably
// different ones. That equivalence relation is exactly what Web Audio
// fingerprinting (Chalise et al., IMC '22) measures from the outside.
package webaudio

import "repro/internal/mathx"

// Precision selects the arithmetic width used when mixing multiple inputs.
type Precision int

const (
	// Mix64 sums connection inputs in float64 then rounds once (Blink-style).
	Mix64 Precision = iota
	// Mix32 sums in float32, rounding at every addition.
	Mix32
)

// Traits captures the platform-identity knobs of an audio stack. The zero
// value is not usable; call DefaultTraits.
type Traits struct {
	// Kernel supplies the transcendental math implementations.
	Kernel mathx.Kernel
	// FFTKernel, if non-nil, overrides Kernel for the AnalyserNode's FFT
	// twiddle factors and window. Real engines often source their FFT from a
	// separate library (PFFFT, FFmpeg, KissFFT) than the rest of the audio
	// stack, so the two can vary independently across platforms — which is
	// why the paper finds more distinct FFT fingerprints (73) than DC ones
	// (59) over the same population.
	FFTKernel mathx.Kernel
	// FlushDenormals simulates FTZ/DAZ hardware or -ffast-math builds.
	FlushDenormals bool
	// MixPrecision selects the input-summing arithmetic width.
	MixPrecision Precision
	// CompressorKneeEps perturbs the soft-knee interpolation coefficient,
	// standing in for implementation differences in the compression curve.
	CompressorKneeEps float64
	// CompressorPreDelay is the compressor's look-ahead in frames. Real
	// implementations use ~6ms; variants differ by a few frames.
	CompressorPreDelay int
	// Farble, if non-nil, enables Brave-style read-point randomization:
	// every script-readable buffer is perturbed by session-keyed noise (the
	// §4 mitigation). Rendering itself is unaffected.
	Farble *FarbleConfig
}

// DefaultTraits returns the reference engine configuration (libm kernel,
// Blink-like defaults).
func DefaultTraits() Traits {
	return Traits{
		Kernel:             mathx.Libm,
		MixPrecision:       Mix64,
		CompressorPreDelay: 256,
	}
}

// round32 applies the trait-dependent float32 rounding (with optional
// denormal flushing) that ends every node's sample computation.
func (t Traits) round32(v float64) float32 {
	return flushRound(t.FlushDenormals, v)
}

// flushRound is round32 with the flush flag hoisted out: the block kernels
// read FlushDenormals once per quantum and pass it as a plain bool, keeping
// the per-sample loop free of both the Traits copy a value receiver costs
// and the address-taken local a pointer receiver costs.
func flushRound(flush bool, v float64) float32 {
	f := float32(v)
	if flush {
		if f != 0 && f < 1.1754944e-38 && f > -1.1754944e-38 {
			f = 0
		}
	}
	return f
}
