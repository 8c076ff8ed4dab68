package dsp

import (
	"math"
	"testing"
)

func tone(freq, rate float64, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(math.Sin(2 * math.Pi * freq * float64(i) / rate))
	}
	return out
}

func TestGoertzelDetectsTargetTone(t *testing.T) {
	const rate = 44100
	buf := tone(1000, rate, 4410)
	at := Goertzel(buf, 1000, rate)
	off := Goertzel(buf, 3000, rate)
	if at < 100*off {
		t.Errorf("on-bin %g not dominant over off-bin %g", at, off)
	}
	if Goertzel(nil, 1000, rate) != 0 {
		t.Error("empty buffer nonzero")
	}
}

func TestGoertzelMatchesFFTBin(t *testing.T) {
	const n = 2048
	const rate = 44100
	// Exact-bin frequency so both methods agree tightly.
	freq := 10 * rate / float64(n)
	buf := tone(freq, rate, n)

	f, _ := NewFFT(n, nil)
	re := make([]float64, n)
	im := make([]float64, n)
	for i, v := range buf {
		re[i] = float64(v)
	}
	f.Transform(re, im)
	fftMag := math.Hypot(re[10], im[10])
	gz := Goertzel(buf, freq, rate)
	if math.Abs(fftMag-gz)/fftMag > 1e-6 {
		t.Errorf("Goertzel %g vs FFT bin %g", gz, fftMag)
	}
}

func TestRMS(t *testing.T) {
	if RMS(nil) != 0 {
		t.Error("RMS(nil) != 0")
	}
	if got := RMS([]float32{3, 4, 3, 4}); math.Abs(got-3.5355) > 1e-3 {
		t.Errorf("RMS = %g", got)
	}
	// Full-scale sine has RMS 1/√2.
	if got := RMS(tone(441, 44100, 44100)); math.Abs(got-1/math.Sqrt2) > 1e-3 {
		t.Errorf("sine RMS = %g, want %g", got, 1/math.Sqrt2)
	}
}

func BenchmarkGoertzel(b *testing.B) {
	buf := tone(1000, 44100, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Goertzel(buf, 1000, 44100)
	}
}
