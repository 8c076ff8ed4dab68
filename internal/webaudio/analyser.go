package webaudio

import (
	"math"

	"repro/internal/dsp"
)

// fftSize is the analyser's FFT length: the spec default, and the size
// every fingerprint script builds.
const fftSize = 2048

// FrequencyBinCount is fftSize/2, the length GetFloatFrequencyData fills.
const FrequencyBinCount = fftSize / 2

// AnalyserNode passes audio through unchanged while exposing FFT analysis of
// the most recent fftSize time-domain frames, per the Web Audio spec:
// Blackman window → FFT → magnitude scaled by 1/fftSize → dB. The FFT
// twiddles and window are built with the platform kernel, so
// GetFloatFrequencyData output is platform-identifying — the paper's
// evidence points to exactly this path ("it is likely that FFT calculations
// are what are causing this apparent instability"). Smoothing over time is
// not modelled: every fingerprint reads one spectrum, taken as a fresh
// analyser's first read, so a read keeps no state.
type AnalyserNode struct {
	nodeBase

	ring    []float32
	ringPos int
	fft     *dsp.FFT
	window  []float64 // shared, read-only (see fftplan.go)
	// re/im are the FFT scratch buffers, reused across captures so
	// steady-state GetFloatFrequencyData allocates nothing.
	re, im []float64
}

// NewAnalyser creates an analyser of fftSize frames.
func (c *Context) NewAnalyser() *AnalyserNode {
	k := c.traits.FFTKernel
	if k == nil {
		k = c.traits.Kernel
	}
	plan := planFor(k)
	a := &AnalyserNode{
		nodeBase: nodeBase{ctx: c, label: "analyser"},
		ring:     make([]float32, fftSize),
		fft:      plan.fft,
		window:   plan.window,
		re:       make([]float64, fftSize),
		im:       make([]float64, fftSize),
	}
	c.register(a)
	return a
}

func (a *AnalyserNode) process() {
	tr := a.ctx.traits
	for i := 0; i < RenderQuantum; i++ {
		v := tr.round32(a.sumInputs(i))
		a.output[i] = v
		a.ring[a.ringPos] = v
		a.ringPos = (a.ringPos + 1) & (fftSize - 1)
	}
}

// processBlock is the analyser block kernel: pass-through round plus the
// ring-buffer capture, over the pre-mixed block.
func (a *AnalyserNode) processBlock(in *[RenderQuantum]float64) {
	flush := a.ctx.traits.FlushDenormals
	ringPos := a.ringPos
	for i := 0; i < RenderQuantum; i++ {
		v := flushRound(flush, in[i])
		a.output[i] = v
		a.ring[ringPos] = v
		ringPos = (ringPos + 1) & (fftSize - 1)
	}
	a.ringPos = ringPos
}

// GetFloatFrequencyData runs the capture pipeline — ring unroll →
// Blackman window → FFT → 1/fftSize magnitude scaling → dB — over the most
// recent fftSize frames into dst. Bins with zero magnitude come
// out as float32(-Inf), as in browsers. A read leaves no state behind, and
// its scratch buffers are reused, so steady-state reads allocate nothing.
func (a *AnalyserNode) GetFloatFrequencyData(dst *[FrequencyBinCount]float32) {
	re, im := a.re, a.im
	// Unroll the ring into time order (oldest first), in two straight runs
	// instead of a per-sample modulo.
	n := fftSize - a.ringPos
	for i := 0; i < n; i++ {
		re[i] = float64(a.ring[a.ringPos+i])
	}
	for i := 0; i < a.ringPos; i++ {
		re[n+i] = float64(a.ring[i])
	}
	clear(im)
	dsp.ApplyWindow(re, a.window)
	a.fft.Transform(re, im)

	const scale = 1.0 / fftSize
	for k := range dst {
		dst[k] = float32(dsp.LinearToDecibels(math.Hypot(re[k], im[k]) * scale))
	}
	a.ctx.traits.Farble.farbleInPlace(dst[:])
}
