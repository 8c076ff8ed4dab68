package webaudio

import (
	"testing"
)

// renderedAnalyser builds a context with a running oscillator feeding an
// analyser whose ring buffer has wrapped at least once.
func renderedAnalyser(t testing.TB, fftSize int) *AnalyserNode {
	t.Helper()
	ctx := NewContext(44100, DefaultTraits())
	osc := ctx.NewOscillator(Triangle, 10000)
	an, err := ctx.NewAnalyser(fftSize)
	if err != nil {
		t.Fatal(err)
	}
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
	an := renderedAnalyser(t, 2048)
	floats := make([]float32, an.FrequencyBinCount())
	if err := an.GetFloatFrequencyData(floats); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := an.GetFloatFrequencyData(floats); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("GetFloatFrequencyData allocates %v objects per call in steady state, want 0", n)
	}
}

// TestFFTPlanSharing: two analysers on contexts with the same kernel must
// share one FFT plan and window, while a different fftSize must not.
func TestFFTPlanSharing(t *testing.T) {
	a := renderedAnalyser(t, 2048)
	b := renderedAnalyser(t, 2048)
	c := renderedAnalyser(t, 512)
	if a.fft != b.fft {
		t.Error("same (size, kernel) did not share the FFT plan")
	}
	if &a.window[0] != &b.window[0] {
		t.Error("same (size, kernel) did not share the window")
	}
	if a.fft == c.fft {
		t.Error("different sizes share an FFT plan")
	}
}
