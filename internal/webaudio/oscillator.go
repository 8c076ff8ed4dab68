package webaudio

import (
	"fmt"
	"math"
)

// OscillatorType enumerates the OscillatorNode waveform shapes.
type OscillatorType int

const (
	// Sine is a pure sine tone.
	Sine OscillatorType = iota
	// Square is a band-limited square wave.
	Square
	// Sawtooth is a band-limited sawtooth wave.
	Sawtooth
	// Triangle is a band-limited triangle wave (the shape both classic
	// fingerprinting vectors use, at 10 kHz).
	Triangle
	// Custom uses a caller-provided PeriodicWave.
	Custom
)

// String returns the Web Audio API name of the type.
func (t OscillatorType) String() string {
	switch t {
	case Sine:
		return "sine"
	case Square:
		return "square"
	case Sawtooth:
		return "sawtooth"
	case Triangle:
		return "triangle"
	case Custom:
		return "custom"
	}
	return fmt.Sprintf("OscillatorType(%d)", int(t))
}

// PeriodicWave holds Fourier coefficients for a custom waveform, mirroring
// BaseAudioContext.createPeriodicWave(real, imag). Index 0 is the DC term
// (ignored, per spec); index k is the k-th harmonic.
type PeriodicWave struct {
	Real []float64
	Imag []float64
	// DisableNormalization mirrors the constructor option; the default
	// (false) scales the waveform to a peak of 1.
	DisableNormalization bool
}

// tableSize is the oscillator wavetable resolution. Blink uses 4096 for its
// lowest-frequency range; one table suffices at fingerprinting frequencies.
const tableSize = 4096

// OscillatorNode produces a periodic waveform via wavetable synthesis: the
// table is built by Fourier summation through the platform's math kernel
// (band-limited below Nyquist), then read with linear interpolation. This is
// the same architecture real engines use, and it is why oscillator output
// carries platform identity.
type OscillatorNode struct {
	nodeBase
	// Frequency is the oscillator frequency in Hz (audio-rate modulable —
	// the FM vector's modulation input).
	Frequency *AudioParam

	typ       OscillatorType
	wave      *PeriodicWave
	table     []float32
	phase     float64 // position in cycles, [0, 1)
	startTime float64
	stopTime  float64
	started   bool
}

// NewOscillator creates an oscillator of the given shape. For Custom, set
// the wave with SetPeriodicWave before starting.
func (c *Context) NewOscillator(typ OscillatorType, freqHz float64) *OscillatorNode {
	o := &OscillatorNode{
		nodeBase: nodeBase{ctx: c, label: "oscillator:" + typ.String()},
		typ:      typ,
	}
	o.Frequency = newParam(c, freqHz, -c.sampleRate/2, c.sampleRate/2)
	o.stopTime = math.Inf(1)
	c.register(o)
	return o
}

// SetPeriodicWave switches the oscillator to the custom waveform w.
func (o *OscillatorNode) SetPeriodicWave(w *PeriodicWave) {
	o.typ = Custom
	o.wave = w
	o.table = nil // rebuild lazily
	o.base().label = "oscillator:custom"
}

// Start schedules sound production from time t (seconds).
func (o *OscillatorNode) Start(t float64) {
	o.started = true
	o.startTime = t
}

func (o *OscillatorNode) params() []*AudioParam {
	return []*AudioParam{o.Frequency}
}

// buildTable resolves the band-limited wavetable for the oscillator's
// waveform at its nominal frequency using the kernel's sine. Synthesis and
// the process-wide table cache live in wavetable.go; the resulting table is
// shared read-only across every oscillator with identical synthesis inputs.
func (o *OscillatorNode) buildTable() {
	f0 := math.Abs(o.Frequency.Value())
	if f0 == 0 {
		f0 = 440
	}
	o.table = wavetableFor(o.ctx.traits.Kernel, o.typ, o.wave,
		f0, o.ctx.sampleRate, o.ctx.traits.OscillatorPhaseOffset)
}

// processBlock is the oscillator's wavetable-read block kernel. The k-rate
// fast path — no modulators on Frequency, the whole quantum inside
// [start, stop) — folds the frequency to a constant and runs a tight
// table-read loop. Anything else (FM modulation, start/stop straddling the
// block) takes the per-sample reference loop, which is bit-identical by
// definition.
func (o *OscillatorNode) processBlock(frameTime int64, _ *[RenderQuantum]float64) {
	if o.table == nil {
		o.buildTable()
	}
	sr := o.ctx.sampleRate
	// t is nondecreasing in the in-quantum index, so block-edge times decide
	// whether the gate is constant across the quantum.
	t0 := float64(frameTime) / sr
	tLast := (float64(frameTime) + RenderQuantum - 1) / sr
	if !(o.started && t0 >= o.startTime && tLast < o.stopTime) || !o.Frequency.isKRate() {
		o.process(frameTime)
		return
	}
	inc := o.Frequency.constValue() / sr
	// The table always has tableSize+1 entries (guard sample), and the
	// phase wrap keeps phase in [0, 1), so idx ∈ [0, tableSize). The
	// fixed-size array view plus the mask (a no-op for in-range idx) lets
	// the compiler drop both bounds checks from the read loop.
	tbl := (*[tableSize + 1]float32)(o.table)
	phase := o.phase
	flush := o.ctx.traits.FlushDenormals
	// The frequency param clamps to ±sr/2, so |inc| ≤ 0.5. With phase ∈
	// [0, 1), phase+inc ∈ [-0.5, 1.5), so Floor is exactly -1, 0, or 1 and
	// the conditional ±1 wrap computes the identical float64. The
	// interpolated sample is already a float32, so the reference's float64
	// round trip through round32 is the identity and only the denormal
	// flush remains. Both shortcuts keep the serial phase recurrence off
	// the Floor call's latency.
	for i := 0; i < RenderQuantum; i++ {
		pos := phase * tableSize
		idx := int(pos) & (tableSize - 1)
		frac := float32(pos - float64(idx))
		s := tbl[idx] + (tbl[idx+1]-tbl[idx])*frac
		if flush && s != 0 && s < 1.1754944e-38 && s > -1.1754944e-38 {
			s = 0
		}
		o.output[i] = s
		phase += inc
		if phase >= 1 {
			phase--
		} else if phase < 0 {
			phase++
		}
	}
	o.phase = phase
}

func (o *OscillatorNode) process(frameTime int64) {
	tr := o.ctx.traits
	if o.table == nil {
		o.buildTable()
	}
	sr := o.ctx.sampleRate
	for i := 0; i < RenderQuantum; i++ {
		t := (float64(frameTime) + float64(i)) / sr
		if !o.started || t < o.startTime || t >= o.stopTime {
			o.output[i] = 0
			continue
		}
		freq := o.Frequency.sampleAt(i)
		// Table lookup with linear interpolation (float32 arithmetic, as in
		// the vectorized table readers real engines ship).
		pos := o.phase * tableSize
		idx := int(pos)
		frac := float32(pos - float64(idx))
		s := o.table[idx] + (o.table[idx+1]-o.table[idx])*frac
		o.output[i] = tr.round32(float64(s))

		o.phase += freq / sr
		o.phase -= math.Floor(o.phase)
	}
}
