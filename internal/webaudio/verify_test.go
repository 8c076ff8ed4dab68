package webaudio

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
)

// These tests verify the engine's signal content against an independent
// detector (Goertzel) rather than its own analyser.

// TestOscillatorFrequencyAccuracy: every waveform's fundamental lands where
// the frequency parameter says, across the audible range.
func TestOscillatorFrequencyAccuracy(t *testing.T) {
	for _, typ := range []OscillatorType{Sine, Square, Sawtooth, Triangle} {
		for _, freq := range []float64{110, 440, 1000, 4000, 10000} {
			buf := renderTone(t, DefaultTraits(), typ, freq, 1<<14)
			on := goertzel(buf, freq, testRate)
			off := goertzel(buf, freq*1.31, testRate)
			if on < 5*off {
				t.Errorf("%v @ %.0f Hz: fundamental %.1f not dominant over off-freq %.1f",
					typ, freq, on, off)
			}
		}
	}
}

// TestSquareHasOnlyOddHarmonics: the band-limited square's even harmonics
// are absent while odd ones are strong.
func TestSquareHasOnlyOddHarmonics(t *testing.T) {
	const f0 = 441.0
	buf := renderTone(t, DefaultTraits(), Square, f0, testRate) // 1 s: integer-Hz bins
	h1 := goertzel(buf, f0, testRate)
	h2 := goertzel(buf, 2*f0, testRate)
	h3 := goertzel(buf, 3*f0, testRate)
	if h3 < h2*5 {
		t.Errorf("square harmonics wrong: h1=%.1f h2=%.1f h3=%.1f", h1, h2, h3)
	}
	// Fourier amplitude ratio h1:h3 = 3:1 for a square wave.
	if ratio := h1 / h3; math.Abs(ratio-3) > 0.5 {
		t.Errorf("square h1/h3 = %.2f, want ≈ 3", ratio)
	}
}

// TestSawtoothHarmonicDecay: sawtooth harmonics decay like 1/n.
func TestSawtoothHarmonicDecay(t *testing.T) {
	const f0 = 441.0
	buf := renderTone(t, DefaultTraits(), Sawtooth, f0, testRate)
	h1 := goertzel(buf, f0, testRate)
	h2 := goertzel(buf, 2*f0, testRate)
	h4 := goertzel(buf, 4*f0, testRate)
	if r := h1 / h2; math.Abs(r-2) > 0.4 {
		t.Errorf("saw h1/h2 = %.2f, want ≈ 2", r)
	}
	if r := h1 / h4; math.Abs(r-4) > 0.8 {
		t.Errorf("saw h1/h4 = %.2f, want ≈ 4", r)
	}
}

// TestGainLinearity: output RMS scales linearly with gain (property test).
func TestGainLinearity(t *testing.T) {
	rmsAt := func(g float64) float64 {
		ctx := defaultCtx()
		osc := ctx.NewOscillator(Sine, 1000)
		gain := ctx.NewGain(g)
		Connect(osc, gain)
		Connect(gain, ctx.Destination())
		buf, err := ctx.RenderFrames(4096)
		if err != nil {
			t.Fatal(err)
		}
		return rms(buf)
	}
	base := rmsAt(1)
	prop := func(seed uint8) bool {
		g := 0.05 + float64(seed)/256.0*2 // (0.05, 2.05)
		got := rmsAt(g)
		return math.Abs(got-g*base) < 0.02*g*base+1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestAnalyserAgreesWithGoertzel: the analyser's dominant bin carries the
// same frequency Goertzel finds in the raw stream.
func TestAnalyserAgreesWithGoertzel(t *testing.T) {
	const freq = 2500.0
	ctx := defaultCtx()
	osc := ctx.NewOscillator(Sine, freq)
	an := ctx.NewAnalyser()
	Connect(osc, an)
	Connect(an, ctx.Destination())
	_ = ctx.RenderQuanta(64)
	var spec [FrequencyBinCount]float32
	an.GetFloatFrequencyData(&spec)
	peak := 0
	for k, v := range spec {
		if v > spec[peak] {
			peak = k
		}
	}
	peakHz := float64(peak) * testRate / 2048
	if math.Abs(peakHz-freq) > testRate/2048+1 {
		t.Errorf("analyser peak at %.0f Hz, want ≈ %.0f", peakHz, freq)
	}

	buf := renderTone(t, DefaultTraits(), Sine, freq, 8192)
	on := goertzel(buf, freq, testRate)
	off := goertzel(buf, freq*2, testRate)
	if on < 50*off {
		t.Errorf("goertzel disagrees: on %.1f, off %.1f", on, off)
	}
}

// TestCompressorMonotonicity: louder input never comes out quieter
// (steady-state), the defining property of a compressor's static curve.
func TestCompressorMonotonicity(t *testing.T) {
	steady := func(inputGain float64) float64 {
		ctx := defaultCtx()
		osc := ctx.NewOscillator(Sine, 1000)
		pre := ctx.NewGain(inputGain)
		comp := ctx.NewDynamicsCompressor()
		Connect(osc, pre)
		Connect(pre, comp)
		Connect(comp, ctx.Destination())
		buf, err := ctx.RenderFrames(testRate / 2)
		if err != nil {
			t.Fatal(err)
		}
		return rms(buf[len(buf)/2:])
	}
	prev := 0.0
	for _, g := range []float64{0.05, 0.1, 0.2, 0.4, 0.8, 1.0} {
		out := steady(g)
		if out < prev-1e-6 {
			t.Fatalf("compressor non-monotone: gain %.2f → %.4f after %.4f", g, out, prev)
		}
		prev = out
	}
	// And it actually compresses: 16× input change ⇒ much less output change.
	lo, hi := steady(0.05), steady(0.8)
	if hi/lo > 8 {
		t.Errorf("compression ratio too weak: %.4f → %.4f", lo, hi)
	}
}

// goertzel evaluates the DFT magnitude of samples at a single target
// frequency (Hz) for the given sample rate: how much energy the buffer
// holds at f, without a full FFT.
func goertzel(samples []float32, targetHz, sampleRate float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	k := math.Round(float64(n) * targetHz / sampleRate)
	w := 2 * math.Pi * k / float64(n)
	coeff := 2 * math.Cos(w)
	var s0, s1, s2 float64
	for _, x := range samples {
		s0 = float64(x) + coeff*s1 - s2
		s2 = s1
		s1 = s0
	}
	power := s1*s1 + s2*s2 - coeff*s1*s2
	if power < 0 {
		power = 0
	}
	return math.Sqrt(power)
}

// rms returns the root-mean-square level of samples, 0 for an empty slice.
func rms(samples []float32) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += float64(v) * float64(v)
	}
	return math.Sqrt(sum / float64(len(samples)))
}

// tone is n samples of a full-scale sine at freq Hz.
func tone(freq, rate float64, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(math.Sin(2 * math.Pi * freq * float64(i) / rate))
	}
	return out
}

// The checks below hold the two detectors themselves to known signals.

func TestGoertzelDetectsTargetTone(t *testing.T) {
	const rate = 44100
	buf := tone(1000, rate, 4410)
	at := goertzel(buf, 1000, rate)
	off := goertzel(buf, 3000, rate)
	if at < 100*off {
		t.Errorf("on-bin %g not dominant over off-bin %g", at, off)
	}
	if goertzel(nil, 1000, rate) != 0 {
		t.Error("empty buffer nonzero")
	}
}

func TestGoertzelMatchesFFTBin(t *testing.T) {
	const n = 2048
	const rate = 44100
	// Exact-bin frequency so both methods agree tightly.
	freq := 10 * rate / float64(n)
	buf := tone(freq, rate, n)

	f, _ := dsp.NewFFT(n, nil)
	re := make([]float64, n)
	im := make([]float64, n)
	for i, v := range buf {
		re[i] = float64(v)
	}
	f.Transform(re, im)
	fftMag := math.Hypot(re[10], im[10])
	gz := goertzel(buf, freq, rate)
	if math.Abs(fftMag-gz)/fftMag > 1e-6 {
		t.Errorf("goertzel %g vs FFT bin %g", gz, fftMag)
	}
}

func TestRMS(t *testing.T) {
	if rms(nil) != 0 {
		t.Error("rms(nil) != 0")
	}
	if got := rms([]float32{3, 4, 3, 4}); math.Abs(got-3.5355) > 1e-3 {
		t.Errorf("rms = %g", got)
	}
	// Full-scale sine has RMS 1/√2.
	if got := rms(tone(441, 44100, 44100)); math.Abs(got-1/math.Sqrt2) > 1e-3 {
		t.Errorf("sine rms = %g, want %g", got, 1/math.Sqrt2)
	}
}
