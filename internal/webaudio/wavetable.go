package webaudio

import (
	"math"
	"strconv"
	"sync"

	"repro/internal/mathx"
)

// Oscillator wavetables are a pure function of (kernel, waveform, nominal
// frequency, sample rate, phase offset, custom coefficients): the Fourier
// summation below costs ~tableSize·maxHarm kernel sines, which for short
// fingerprint renders rivals the render itself. Like the analyser's FFT
// plans (fftplan.go), tables are therefore cached process-wide: a
// population sweep revisits the same few dozen platform classes, and every
// context simulating one of them shares the same read-only table. Keying by
// Kernel.Name is sound because kernel names are registry-unique platform
// identity.

var wavetables sync.Map // string → []float32

// wavetableKey canonically identifies every input of buildWavetable:
// "name|type|f0|rate|phase" with the floats as hex bit patterns, then for
// a custom wave "|normalization" and ",re"… ";" ",im"…. It appends with
// strconv rather than fmt, whose buffer pool makes the allocation count
// vary under the race detector.
func wavetableKey(k mathx.Kernel, typ OscillatorType, wave *PeriodicWave, f0, sampleRate, phaseOff float64) string {
	b := make([]byte, 0, 64)
	b = append(b, k.Name()...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(typ), 10)
	for _, v := range [...]float64{f0, sampleRate, phaseOff} {
		b = append(b, '|')
		b = strconv.AppendUint(b, math.Float64bits(v), 16)
	}
	if typ == Custom && wave != nil {
		b = append(b, '|')
		b = strconv.AppendBool(b, wave.DisableNormalization)
		for _, v := range wave.Real {
			b = append(b, ',')
			b = strconv.AppendUint(b, math.Float64bits(v), 16)
		}
		b = append(b, ';')
		for _, v := range wave.Imag {
			b = append(b, ',')
			b = strconv.AppendUint(b, math.Float64bits(v), 16)
		}
	}
	return string(b)
}

// buildWavetable synthesizes the band-limited wavetable by Fourier
// summation through the kernel's sine — the table builder of
// OscillatorNode, hoisted so its output can be shared. The returned slice
// has tableSize+1 entries (guard sample for interpolation) and is
// read-only.
func buildWavetable(k mathx.Kernel, typ OscillatorType, wave *PeriodicWave, f0, sampleRate, phaseOff float64) []float32 {
	nyquist := sampleRate / 2
	maxHarm := int(nyquist / f0)
	if maxHarm < 1 {
		maxHarm = 1
	}

	var real, imag []float64
	switch typ {
	case Sine:
		real = []float64{0, 0}
		imag = []float64{0, 1}
	case Square:
		// b_n = 4/(nπ) for odd n.
		n := maxHarm + 1
		real = make([]float64, n)
		imag = make([]float64, n)
		for h := 1; h < n; h += 2 {
			imag[h] = 4 / (float64(h) * math.Pi)
		}
	case Sawtooth:
		// b_n = 2/(nπ) · (−1)^{n+1}.
		n := maxHarm + 1
		real = make([]float64, n)
		imag = make([]float64, n)
		sign := 1.0
		for h := 1; h < n; h++ {
			imag[h] = sign * 2 / (float64(h) * math.Pi)
			sign = -sign
		}
	case Triangle:
		// b_n = 8/(n²π²) · (−1)^{(n−1)/2} for odd n.
		n := maxHarm + 1
		real = make([]float64, n)
		imag = make([]float64, n)
		sign := 1.0
		for h := 1; h < n; h += 2 {
			imag[h] = sign * 8 / (float64(h) * float64(h) * math.Pi * math.Pi)
			sign = -sign
		}
	case Custom:
		if wave == nil {
			panic("webaudio: custom oscillator without a PeriodicWave")
		}
		nc := len(wave.Real)
		if len(wave.Imag) < nc {
			nc = len(wave.Imag)
		}
		if nc > maxHarm+1 {
			nc = maxHarm + 1 // band-limit to Nyquist
		}
		real = append([]float64(nil), wave.Real[:nc]...)
		imag = append([]float64(nil), wave.Imag[:nc]...)
	}

	tbl := make([]float64, tableSize)
	for i := 0; i < tableSize; i++ {
		phi := 2*math.Pi*float64(i)/tableSize + phaseOff
		var v float64
		for h := 1; h < len(real); h++ {
			hphi := float64(h) * phi
			// cos via the kernel's sine, as the engine's table builder would.
			v += real[h]*k.Sin(hphi+math.Pi/2) + imag[h]*k.Sin(hphi)
		}
		tbl[i] = v
	}

	normalize := true
	if typ == Custom && wave.DisableNormalization {
		normalize = false
	}
	if normalize {
		var peak float64
		for _, v := range tbl {
			if a := math.Abs(v); a > peak {
				peak = a
			}
		}
		if peak > 0 {
			inv := 1 / peak
			for i := range tbl {
				tbl[i] *= inv
			}
		}
	}
	out := make([]float32, tableSize+1)
	for i, v := range tbl {
		out[i] = float32(v)
	}
	out[tableSize] = out[0]
	return out
}

// wavetableFor returns the cached table for the given synthesis inputs,
// building it on first use. Concurrent first calls may both build;
// LoadOrStore keeps one (both are bit-identical).
func wavetableFor(k mathx.Kernel, typ OscillatorType, wave *PeriodicWave, f0, sampleRate, phaseOff float64) []float32 {
	key := wavetableKey(k, typ, wave, f0, sampleRate, phaseOff)
	if t, ok := wavetables.Load(key); ok {
		return t.([]float32)
	}
	tbl := buildWavetable(k, typ, wave, f0, sampleRate, phaseOff)
	actual, _ := wavetables.LoadOrStore(key, tbl)
	return actual.([]float32)
}
