package webaudio

import (
	"testing"

	"repro/internal/mathx"
)

// renderedAnalyser builds a context with a running oscillator feeding an
// analyser whose ring buffer has wrapped at least once.
func renderedAnalyser(t testing.TB, tr Traits) *AnalyserNode {
	t.Helper()
	ctx := NewContext(44100, tr)
	osc := ctx.NewOscillator(Triangle, 10000)
	an := ctx.NewAnalyser()
	Connect(osc, an)
	Connect(an, ctx.Destination())
	if err := ctx.RenderQuanta(fftSize / RenderQuantum * 2); err != nil {
		t.Fatal(err)
	}
	return an
}

// TestAnalyserFrequencyDataZeroAllocs asserts the capture hot path reuses
// its FFT scratch: after warm-up, a frequency-data read allocates nothing.
func TestAnalyserFrequencyDataZeroAllocs(t *testing.T) {
	an := renderedAnalyser(t, DefaultTraits())
	var floats [FrequencyBinCount]float32
	an.GetFloatFrequencyData(&floats)
	if n := testing.AllocsPerRun(100, func() {
		an.GetFloatFrequencyData(&floats)
	}); n != 0 {
		t.Errorf("GetFloatFrequencyData allocates %v objects per call in steady state, want 0", n)
	}
}

// TestFFTPlanSharing: two analysers on contexts with the same kernel must
// share one FFT plan and window, while a different FFT kernel must not.
func TestFFTPlanSharing(t *testing.T) {
	a := renderedAnalyser(t, DefaultTraits())
	b := renderedAnalyser(t, DefaultTraits())
	poly7 := DefaultTraits()
	poly7.FFTKernel = mathx.Poly7
	c := renderedAnalyser(t, poly7)
	if a.fft != b.fft {
		t.Error("same kernel did not share the FFT plan")
	}
	if &a.window[0] != &b.window[0] {
		t.Error("same kernel did not share the window")
	}
	if a.fft == c.fft || &a.window[0] == &c.window[0] {
		t.Error("different FFT kernels share a plan")
	}
}
