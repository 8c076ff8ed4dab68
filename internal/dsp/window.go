package dsp

import "math"

// BlackmanWindow returns the n-point Blackman window the Web Audio spec
// mandates for AnalyserNode frequency analysis:
//
//	w[i] = a0 − a1 cos(2πi/N) + a2 cos(4πi/N),  a = (0.42, 0.5, 0.08)
//
// cos is evaluated via sin(x + π/2) on the provided kernel sine so that the
// window itself carries platform identity, as it does in real engines.
func BlackmanWindow(n int, sin SinFunc) []float64 {
	if sin == nil {
		sin = math.Sin
	}
	const (
		a0 = 0.42
		a1 = 0.5
		a2 = 0.08
	)
	w := make([]float64, n)
	for i := range w {
		x := float64(i) / float64(n)
		w[i] = a0 - a1*sin(2*math.Pi*x+math.Pi/2) + a2*sin(4*math.Pi*x+math.Pi/2)
	}
	return w
}

// ApplyWindow multiplies dst element-wise by w. Panics if lengths differ.
func ApplyWindow(dst, w []float64) {
	if len(dst) != len(w) {
		panic("dsp: window length mismatch")
	}
	for i := range dst {
		dst[i] *= w[i]
	}
}
