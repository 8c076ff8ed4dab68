// Package dsp implements the signal-processing primitives the webaudio
// engine is built on: an in-place radix-2 complex FFT, spectral windows and
// magnitude/decibel conversions.
//
// The FFT's twiddle factors are computed through a caller-supplied sine
// function so that simulated platforms with different math kernels produce
// (slightly) different spectra — the effect Web Audio FFT fingerprinting
// measures.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
)

// SinFunc computes sin(x) for x in radians. math.Sin is the reference.
type SinFunc func(float64) float64

// FFT computes forward radix-2 FFTs of a fixed size.
// It is safe for concurrent use after construction.
type FFT struct {
	n      int
	rev    []int     // bit-reversal permutation
	cosTab []float64 // twiddle cosines, n/2 entries
	sinTab []float64 // twiddle sines, n/2 entries
}

// NewFFT builds an FFT of size n (a power of two ≥ 2). Twiddle factors are
// computed with sin; pass nil for math.Sin.
func NewFFT(n int, sin SinFunc) (*FFT, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT size %d is not a power of two ≥ 2", n)
	}
	if sin == nil {
		sin = math.Sin
	}
	f := &FFT{
		n:      n,
		rev:    make([]int, n),
		cosTab: make([]float64, n/2),
		sinTab: make([]float64, n/2),
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := range f.rev {
		f.rev[i] = int(bits.Reverse64(uint64(i)) >> shift)
	}
	for i := 0; i < n/2; i++ {
		theta := -2 * math.Pi * float64(i) / float64(n)
		f.cosTab[i] = sin(theta + math.Pi/2) // cos θ = sin(θ + π/2), via the kernel
		f.sinTab[i] = sin(theta)
	}
	return f, nil
}

// Transform computes the in-place forward FFT of (re, im).
// Both slices must have the transform length.
func (f *FFT) Transform(re, im []float64) {
	if len(re) != f.n || len(im) != f.n {
		panic(fmt.Sprintf("dsp: Transform buffer length %d/%d, want %d", len(re), len(im), f.n))
	}
	// Bit-reversal permutation.
	for i, j := range f.rev {
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	// Cooley–Tukey butterflies.
	for size := 2; size <= f.n; size <<= 1 {
		half := size / 2
		step := f.n / size
		for start := 0; start < f.n; start += size {
			k := 0
			for i := start; i < start+half; i++ {
				j := i + half
				wr, wi := f.cosTab[k], f.sinTab[k]
				tr := wr*re[j] - wi*im[j]
				ti := wr*im[j] + wi*re[j]
				re[j] = re[i] - tr
				im[j] = im[i] - ti
				re[i] += tr
				im[i] += ti
				k += step
			}
		}
	}
}
