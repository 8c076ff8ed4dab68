package dsp

import "math"

// Goertzel evaluates the DFT magnitude of samples at a single target
// frequency (Hz) for the given sample rate — the cheap way to ask "how much
// energy does this buffer hold at f?" without a full FFT. Used by engine
// tests and the tooling that verifies oscillator frequencies.
func Goertzel(samples []float32, targetHz, sampleRate float64) float64 {
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

// RMS returns the root-mean-square level of samples, 0 for an empty slice.
func RMS(samples []float32) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += float64(v) * float64(v)
	}
	return math.Sqrt(sum / float64(len(samples)))
}
