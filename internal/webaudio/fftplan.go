package webaudio

import (
	"sync"

	"repro/internal/dsp"
	"repro/internal/mathx"
)

// fftPlan bundles the precomputed, read-only state an AnalyserNode needs
// for one kernel: the fftSize-point FFT twiddle tables and the Blackman
// window, both built through the kernel's sine. Plans are cached
// process-wide so every context simulating the same platform shares one
// set of tables instead of recomputing ~1.5·fftSize kernel sines per
// analyser — a study run touches the same few dozen platform classes over
// and over. Keying by Kernel.Name is sound because a kernel's name is part
// of the simulated platform's identity (see mathx.Kernel).
type fftPlan struct {
	fft    *dsp.FFT
	window []float64
}

var fftPlans sync.Map // kernel name → *fftPlan

// planFor returns the cached plan for kernel k, building it on first use.
// Concurrent first calls may both build; LoadOrStore keeps one.
func planFor(k mathx.Kernel) *fftPlan {
	if p, ok := fftPlans.Load(k.Name()); ok {
		return p.(*fftPlan)
	}
	fft, err := dsp.NewFFT(fftSize, k.Sin)
	if err != nil {
		panic(err) // fftSize is a power of two
	}
	p := &fftPlan{fft: fft, window: dsp.BlackmanWindow(fftSize, k.Sin)}
	actual, _ := fftPlans.LoadOrStore(k.Name(), p)
	return actual.(*fftPlan)
}
