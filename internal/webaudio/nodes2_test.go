package webaudio

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

// spectrumOf renders a graph tail through an analyser and returns the dB
// spectrum after warmup.
func spectrumOf(t *testing.T, ctx *Context, src Node, quanta int) []float32 {
	t.Helper()
	an, err := ctx.NewAnalyser(2048)
	if err != nil {
		t.Fatal(err)
	}
	Connect(src, an)
	Connect(an, ctx.Destination())
	if err := ctx.RenderQuanta(quanta); err != nil {
		t.Fatal(err)
	}
	out := make([]float32, an.FrequencyBinCount())
	if err := an.GetFloatFrequencyData(out); err != nil {
		t.Fatal(err)
	}
	return out
}

func binFor(hz float64) int { return int(hz * 2048 / testRate) }

func TestBiquadLowpassAttenuatesHighs(t *testing.T) {
	ctx := defaultCtx()
	// Two tones: 500 Hz (pass) and 8 kHz (stop) through a 1 kHz lowpass.
	lo := ctx.NewOscillator(Sine, 500)
	hi := ctx.NewOscillator(Sine, 8000)
	lo.Start(0)
	hi.Start(0)
	f := ctx.NewBiquadFilter(Lowpass)
	f.Frequency.SetValue(1000)
	Connect(lo, f)
	Connect(hi, f)
	spec := spectrumOf(t, ctx, f, 64)
	passDB := spec[binFor(500)]
	stopDB := spec[binFor(8000)]
	if passDB-stopDB < 20 {
		t.Errorf("lowpass rejection only %.1f dB (pass %.1f, stop %.1f)", passDB-stopDB, passDB, stopDB)
	}
}

func TestBiquadHighpassAttenuatesLows(t *testing.T) {
	ctx := defaultCtx()
	lo := ctx.NewOscillator(Sine, 200)
	hi := ctx.NewOscillator(Sine, 8000)
	lo.Start(0)
	hi.Start(0)
	f := ctx.NewBiquadFilter(Highpass)
	f.Frequency.SetValue(2000)
	Connect(lo, f)
	Connect(hi, f)
	spec := spectrumOf(t, ctx, f, 64)
	if spec[binFor(8000)]-spec[binFor(200)] < 20 {
		t.Errorf("highpass rejection too small: hi %.1f dB, lo %.1f dB",
			spec[binFor(8000)], spec[binFor(200)])
	}
}

func TestBiquadPeakingBoosts(t *testing.T) {
	render := func(gain float64) float32 {
		ctx := defaultCtx()
		osc := ctx.NewOscillator(Sine, 1000)
		osc.Start(0)
		f := ctx.NewBiquadFilter(Peaking)
		f.Frequency.SetValue(1000)
		f.Gain.SetValue(gain)
		Connect(osc, f)
		spec := spectrumOf(t, ctx, f, 64)
		return spec[binFor(1000)]
	}
	flat := render(0)
	boosted := render(12)
	if float64(boosted-flat) < 9 {
		t.Errorf("peaking +12 dB boost measured %.1f dB", boosted-flat)
	}
}

func TestBiquadTypesAllStable(t *testing.T) {
	for _, typ := range []BiquadFilterType{Lowpass, Highpass, Bandpass, Notch,
		Allpass, Peaking, Lowshelf, Highshelf} {
		ctx := defaultCtx()
		osc := ctx.NewOscillator(Sawtooth, 440)
		osc.Start(0)
		f := ctx.NewBiquadFilter(typ)
		f.Gain.SetValue(6)
		Connect(osc, f)
		Connect(f, ctx.Destination())
		buf, err := ctx.RenderFrames(8192)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range buf {
			if math.IsNaN(float64(v)) || math.Abs(float64(v)) > 100 {
				t.Fatalf("%v: unstable output %g at sample %d", typ, v, i)
			}
		}
	}
}

// TestBiquadKernelIdentity: the filter's trig coefficients go through the
// platform kernel, so it is fingerprintable like the rest of the engine.
func TestBiquadKernelIdentity(t *testing.T) {
	render := func(tr Traits) []float32 {
		ctx := NewContext(testRate, tr)
		osc := ctx.NewOscillator(Triangle, 2000)
		osc.Start(0)
		f := ctx.NewBiquadFilter(Lowpass)
		f.Frequency.SetValue(3000)
		Connect(osc, f)
		Connect(f, ctx.Destination())
		buf, err := ctx.RenderFrames(4096)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a := render(DefaultTraits())
	tr := DefaultTraits()
	tr.Kernel = mathx.Poly7
	b := render(tr)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("biquad output identical across kernels")
	}
}

func TestWaveShaperCurve(t *testing.T) {
	ctx := defaultCtx()
	ws := ctx.NewWaveShaper()
	// Hard clipper at ±0.5.
	if err := ws.SetCurve([]float32{-0.5, 0, 0.5}); err != nil {
		t.Fatal(err)
	}
	osc := ctx.NewOscillator(Sine, 440)
	osc.Start(0)
	Connect(osc, ws)
	Connect(ws, ctx.Destination())
	buf, err := ctx.RenderFrames(2048)
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for _, v := range buf {
		if a := math.Abs(float64(v)); a > peak {
			peak = a
		}
	}
	if peak > 0.5001 {
		t.Errorf("clipper peak %.4f, want ≤ 0.5", peak)
	}
	if peak < 0.45 {
		t.Errorf("clipper peak %.4f — curve misapplied", peak)
	}
	if err := ws.SetCurve([]float32{1}); err == nil {
		t.Error("single-point curve accepted")
	}
	if err := ws.SetCurve(nil); err != nil {
		t.Errorf("nil curve rejected: %v", err)
	}
}

func TestWaveShaperPassThroughWithoutCurve(t *testing.T) {
	ctx := defaultCtx()
	ws := ctx.NewWaveShaper()
	osc := ctx.NewOscillator(Sine, 440)
	osc.Start(0)
	Connect(osc, ws)
	Connect(ws, ctx.Destination())
	got, err := ctx.RenderFrames(1024)
	if err != nil {
		t.Fatal(err)
	}
	want := renderTone(t, DefaultTraits(), Sine, 440, 1024)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pass-through altered sample %d", i)
		}
	}
}

// TestADSRStyleEnvelope exercises chained automation as real scripts use it.
func TestADSRStyleEnvelope(t *testing.T) {
	ctx := defaultCtx()
	osc := ctx.NewOscillator(Sine, 440)
	g := ctx.NewGain(0)
	g.Gain.SetValueAtTime(0.001, 0)
	g.Gain.ExponentialRampToValueAtTime(1, 0.01)    // attack
	g.Gain.ExponentialRampToValueAtTime(0.5, 0.03)  // decay to sustain
	g.Gain.SetValueAtTime(0.5, 0.05)                // sustain
	g.Gain.ExponentialRampToValueAtTime(0.001, 0.1) // release
	g.Gain.SetValueAtTime(0, 0.1)
	osc.Start(0)
	Connect(osc, g)
	Connect(g, ctx.Destination())
	buf, err := ctx.RenderFrames(int(0.2 * testRate))
	if err != nil {
		t.Fatal(err)
	}
	peakAt := func(lo, hi float64) float64 {
		var m float64
		for i := int(lo * testRate); i < int(hi*testRate); i++ {
			if a := math.Abs(float64(buf[i])); a > m {
				m = a
			}
		}
		return m
	}
	attack := peakAt(0.005, 0.015)
	sustain := peakAt(0.03, 0.05)
	tail := peakAt(0.15, 0.2)
	if !(attack > sustain && sustain > tail) {
		t.Errorf("envelope shape wrong: attack %.3f, sustain %.3f, tail %.3f", attack, sustain, tail)
	}
	if tail > 0.05 {
		t.Errorf("release did not decay: tail %.3f", tail)
	}
}
