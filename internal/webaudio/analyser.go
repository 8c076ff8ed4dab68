package webaudio

import (
	"fmt"
	"math"

	"repro/internal/dsp"
)

// AnalyserNode passes audio through unchanged while exposing FFT analysis of
// the most recent fftSize time-domain frames, per the Web Audio spec:
// Blackman window → FFT → magnitude scaled by 1/fftSize → smoothing over
// time (constant 0.8) → dB. The FFT twiddles and window are built with the
// platform kernel, so GetFloatFrequencyData output is platform-identifying —
// the paper's evidence points to exactly this path ("it is likely that FFT
// calculations are what are causing this apparent instability").
type AnalyserNode struct {
	nodeBase
	fftSize   int
	smoothing float64
	minDB     float64
	maxDB     float64

	ring     []float32
	ringPos  int
	filled   int
	fft      *dsp.FFT
	window   []float64 // shared, read-only (see fftplan.go)
	smoothed []float64
	haveData bool
	// re/im are the FFT scratch buffers, reused across captures so
	// steady-state GetFloatFrequencyData/GetByteFrequencyData allocate
	// nothing; dbScratch holds the dB spectrum for the byte path.
	re, im    []float64
	dbScratch []float32
}

// NewAnalyser creates an analyser with the given fftSize (a power of two in
// [32, 32768]; 2048 is both the spec default and what fingerprint scripts
// use).
func (c *Context) NewAnalyser(fftSize int) (*AnalyserNode, error) {
	if fftSize < 32 || fftSize > 32768 || fftSize&(fftSize-1) != 0 {
		return nil, fmt.Errorf("webaudio: invalid fftSize %d", fftSize)
	}
	k := c.traits.FFTKernel
	if k == nil {
		k = c.traits.Kernel
	}
	plan, err := planFor(fftSize, k)
	if err != nil {
		return nil, err
	}
	a := &AnalyserNode{
		nodeBase:  nodeBase{ctx: c, label: "analyser"},
		fftSize:   fftSize,
		smoothing: 0.8,
		minDB:     -100,
		maxDB:     -30,
		ring:      make([]float32, fftSize),
		fft:       plan.fft,
		window:    plan.window,
		smoothed:  make([]float64, fftSize/2),
		re:        make([]float64, fftSize),
		im:        make([]float64, fftSize),
	}
	c.register(a)
	return a, nil
}

// FrequencyBinCount returns fftSize/2, the length GetFloatFrequencyData
// fills.
func (a *AnalyserNode) FrequencyBinCount() int { return a.fftSize / 2 }

// SetSmoothingTimeConstant sets the inter-capture smoothing factor τ ∈ [0,1].
func (a *AnalyserNode) SetSmoothingTimeConstant(tau float64) error {
	if tau < 0 || tau > 1 {
		return fmt.Errorf("webaudio: smoothingTimeConstant %v out of [0,1]", tau)
	}
	a.smoothing = tau
	return nil
}

func (a *AnalyserNode) process(frameTime int64) {
	tr := a.ctx.traits
	mask := a.fftSize - 1 // fftSize is a power of two
	for i := 0; i < RenderQuantum; i++ {
		v := tr.round32(a.sumInputs(i))
		a.output[i] = v
		a.ring[a.ringPos] = v
		a.ringPos = (a.ringPos + 1) & mask
	}
	if a.filled < a.fftSize {
		a.filled += RenderQuantum
	}
}

// processBlock is the analyser block kernel: pass-through round plus the
// ring-buffer capture, over the pre-mixed block.
func (a *AnalyserNode) processBlock(_ int64, in *[RenderQuantum]float64) {
	flush := a.ctx.traits.FlushDenormals
	mask := a.fftSize - 1
	ringPos := a.ringPos
	for i := 0; i < RenderQuantum; i++ {
		v := flushRound(flush, in[i])
		a.output[i] = v
		a.ring[ringPos] = v
		ringPos = (ringPos + 1) & mask
	}
	a.ringPos = ringPos
	if a.filled < a.fftSize {
		a.filled += RenderQuantum
	}
}

// computeSpectrum runs the capture pipeline of the spec — ring unroll →
// Blackman window → FFT → 1/fftSize magnitude scaling → smoothing over
// time — updating a.smoothed in place. Scratch buffers are reused across
// calls, so steady-state captures allocate nothing.
func (a *AnalyserNode) computeSpectrum() {
	re, im := a.re, a.im
	// Unroll the ring into time order (oldest first), in two straight runs
	// instead of a per-sample modulo.
	n := a.fftSize - a.ringPos
	for i := 0; i < n; i++ {
		re[i] = float64(a.ring[a.ringPos+i])
	}
	for i := 0; i < a.ringPos; i++ {
		re[n+i] = float64(a.ring[i])
	}
	for i := range im {
		im[i] = 0
	}
	dsp.ApplyWindow(re, a.window)
	a.fft.Transform(re, im)

	half := a.fftSize / 2
	scale := 1 / float64(a.fftSize)
	tau := a.smoothing
	if !a.haveData {
		tau = 0
		a.haveData = true
	}
	for k := 0; k < half; k++ {
		mag := math.Hypot(re[k], im[k]) * scale
		a.smoothed[k] = tau*a.smoothed[k] + (1-tau)*mag
	}
}

// ResetSmoothing returns the smoothing-over-time state to that of a new
// node, so the next capture reads the current frames unsmoothed, exactly
// as the first capture of a fresh context does. Rendering is unaffected.
func (a *AnalyserNode) ResetSmoothing() {
	a.haveData = false
	clear(a.smoothed)
}

// GetFloatFrequencyData computes the dB spectrum of the most recent fftSize
// frames into dst (length ≥ FrequencyBinCount). Bins with zero magnitude
// come out as float32(-Inf), as in browsers. Each call advances the
// smoothing state, mirroring successive captures in a live context.
func (a *AnalyserNode) GetFloatFrequencyData(dst []float32) error {
	half := a.fftSize / 2
	if len(dst) < half {
		return fmt.Errorf("webaudio: destination length %d < frequencyBinCount %d", len(dst), half)
	}
	a.computeSpectrum()
	for k := 0; k < half; k++ {
		dst[k] = float32(dsp.LinearToDecibels(a.smoothed[k]))
	}
	a.ctx.traits.Farble.farbleInPlace(dst[:half])
	return nil
}

// GetByteFrequencyData is the spec's quantized spectrum read: the dB value
// of each bin is mapped linearly from [minDecibels, maxDecibels] onto
// [0, 255] and clamped. It shares (and advances) the smoothing state with
// GetFloatFrequencyData, and farbling applies before quantization, as the
// byte array is just as script-readable as the float one.
func (a *AnalyserNode) GetByteFrequencyData(dst []byte) error {
	half := a.fftSize / 2
	if len(dst) < half {
		return fmt.Errorf("webaudio: destination length %d < frequencyBinCount %d", len(dst), half)
	}
	a.computeSpectrum()
	if a.dbScratch == nil {
		a.dbScratch = make([]float32, half)
	}
	for k := 0; k < half; k++ {
		a.dbScratch[k] = float32(dsp.LinearToDecibels(a.smoothed[k]))
	}
	a.ctx.traits.Farble.farbleInPlace(a.dbScratch)
	span := a.maxDB - a.minDB
	for k := 0; k < half; k++ {
		norm := (float64(a.dbScratch[k]) - a.minDB) / span
		switch {
		case !(norm > 0): // also catches the -Inf of silent bins
			dst[k] = 0
		case norm >= 1:
			dst[k] = 255
		default:
			dst[k] = byte(255 * norm)
		}
	}
	return nil
}

// GetFloatTimeDomainData copies the most recent fftSize frames into dst
// (length ≥ fftSize), oldest first.
func (a *AnalyserNode) GetFloatTimeDomainData(dst []float32) error {
	if len(dst) < a.fftSize {
		return fmt.Errorf("webaudio: destination length %d < fftSize %d", len(dst), a.fftSize)
	}
	n := copy(dst, a.ring[a.ringPos:])
	copy(dst[n:a.fftSize], a.ring[:a.ringPos])
	return nil
}
