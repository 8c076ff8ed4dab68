package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewFFTRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 100, -8} {
		if _, err := NewFFT(n, nil); err == nil {
			t.Errorf("NewFFT(%d) succeeded, want error", n)
		}
	}
	for _, n := range []int{2, 4, 1024, 2048} {
		f, err := NewFFT(n, nil)
		if err != nil {
			t.Fatalf("NewFFT(%d): %v", n, err)
		}
		if f.n != n {
			t.Errorf("length = %d, want %d", f.n, n)
		}
	}
}

// TestBitReversalShared: plans of one size share one bit-reversal table
// whatever their sine kernel, and the table is the size's permutation.
func TestBitReversalShared(t *testing.T) {
	a, _ := NewFFT(2048, nil)
	b, _ := NewFFT(2048, func(x float64) float64 { return math.Sin(x) * (1 + 1e-12) })
	c, _ := NewFFT(1024, nil)
	if &a.rev[0] != &b.rev[0] {
		t.Error("two 2048-point plans hold separate bit-reversal tables")
	}
	if len(c.rev) != 1024 || &a.rev[0] == &c.rev[0] {
		t.Error("the 1024-point plan shares the 2048-point table")
	}
	for i, j := range c.rev {
		want := 0
		for bit := 0; bit < 10; bit++ {
			want |= (i >> bit & 1) << (9 - bit)
		}
		if j != want {
			t.Fatalf("rev[%d] = %d, want %d", i, j, want)
		}
	}
}

// naiveDFT is the O(n²) reference used to validate the FFT.
func naiveDFT(re, im []float64) ([]float64, []float64) {
	n := len(re)
	or := make([]float64, n)
	oi := make([]float64, n)
	for k := 0; k < n; k++ {
		for t := 0; t < n; t++ {
			theta := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			c, s := math.Cos(theta), math.Sin(theta)
			or[k] += re[t]*c - im[t]*s
			oi[k] += re[t]*s + im[t]*c
		}
	}
	return or, oi
}

func TestTransformMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{4, 16, 64, 256} {
		f, err := NewFFT(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		re := make([]float64, n)
		im := make([]float64, n)
		for i := range re {
			re[i] = rng.NormFloat64()
			im[i] = rng.NormFloat64()
		}
		wantR, wantI := naiveDFT(re, im)
		f.Transform(re, im)
		for k := 0; k < n; k++ {
			if math.Abs(re[k]-wantR[k]) > 1e-9*float64(n) || math.Abs(im[k]-wantI[k]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: got (%g,%g), want (%g,%g)", n, k, re[k], im[k], wantR[k], wantI[k])
			}
		}
	}
}

func TestTransformKnownSpectrum(t *testing.T) {
	// A pure cosine at bin 5 must put (n/2) in bins 5 and n-5.
	const n = 64
	f, _ := NewFFT(n, nil)
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = math.Cos(2 * math.Pi * 5 * float64(i) / n)
	}
	f.Transform(re, im)
	for k := 0; k < n; k++ {
		want := 0.0
		if k == 5 || k == n-5 {
			want = n / 2
		}
		if math.Abs(re[k]-want) > 1e-9 || math.Abs(im[k]) > 1e-9 {
			t.Fatalf("bin %d: got (%g,%g), want (%g,0)", k, re[k], im[k], want)
		}
	}
}

// TestRoundTrip is a property test: the inverse transform, computed with
// Transform as conj(FFT(conj(X)))/n, recovers x.
func TestRoundTrip(t *testing.T) {
	const n = 128
	f, _ := NewFFT(n, nil)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		re := make([]float64, n)
		im := make([]float64, n)
		orig := make([]float64, n)
		for i := range re {
			re[i] = rng.Float64()*2 - 1
			orig[i] = re[i]
		}
		f.Transform(re, im)
		for i := range im {
			im[i] = -im[i]
		}
		f.Transform(re, im)
		for i := range re {
			re[i] /= n
			im[i] /= -n
			if math.Abs(re[i]-orig[i]) > 1e-10 || math.Abs(im[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestParseval is a property test of energy conservation:
// Σ|x|² = (1/n) Σ|X|².
func TestParseval(t *testing.T) {
	const n = 256
	f, _ := NewFFT(n, nil)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		re := make([]float64, n)
		im := make([]float64, n)
		var timeE float64
		for i := range re {
			re[i] = rng.NormFloat64()
			timeE += re[i] * re[i]
		}
		f.Transform(re, im)
		var freqE float64
		for i := range re {
			freqE += re[i]*re[i] + im[i]*im[i]
		}
		freqE /= n
		return math.Abs(timeE-freqE) < 1e-8*timeE
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestLinearity: FFT(ax + by) = a FFT(x) + b FFT(y).
func TestLinearity(t *testing.T) {
	const n = 64
	f, _ := NewFFT(n, nil)
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	a, b := 2.5, -1.25
	sumR := make([]float64, n)
	sumI := make([]float64, n)
	for i := range sumR {
		sumR[i] = a*x[i] + b*y[i]
	}
	f.Transform(sumR, sumI)

	xr, xi := append([]float64(nil), x...), make([]float64, n)
	yr, yi := append([]float64(nil), y...), make([]float64, n)
	f.Transform(xr, xi)
	f.Transform(yr, yi)
	for k := 0; k < n; k++ {
		wantR := a*xr[k] + b*yr[k]
		wantI := a*xi[k] + b*yi[k]
		if math.Abs(sumR[k]-wantR) > 1e-9 || math.Abs(sumI[k]-wantI) > 1e-9 {
			t.Fatalf("linearity violated at bin %d", k)
		}
	}
}

// TestKernelSinAffectsSpectrum: an FFT with a different twiddle source must
// produce a different (but close) spectrum — the fingerprinting premise.
func TestKernelSinAffectsSpectrum(t *testing.T) {
	const n = 2048
	ref, _ := NewFFT(n, nil)
	coarse, _ := NewFFT(n, func(x float64) float64 {
		// sin with a relative bias above float32 resolution
		return math.Sin(x) * (1 + 3e-7)
	})
	re1 := make([]float64, n)
	im1 := make([]float64, n)
	for i := range re1 {
		re1[i] = math.Sin(2 * math.Pi * 10000 * float64(i) / 44100)
	}
	re2 := append([]float64(nil), re1...)
	im2 := make([]float64, n)
	ref.Transform(re1, im1)
	coarse.Transform(re2, im2)
	identical := true
	var maxDiff float64
	for k := 0; k < n; k++ {
		d := math.Abs(re1[k] - re2[k])
		if d != 0 {
			identical = false
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	if identical {
		t.Error("different twiddle kernels produced bit-identical spectra")
	}
	if maxDiff > 1e-2 {
		t.Errorf("twiddle perturbation changed spectrum too much: max diff %g", maxDiff)
	}
}

func TestTransformPanicsOnShortBuffer(t *testing.T) {
	f, _ := NewFFT(8, nil)
	defer func() {
		if recover() == nil {
			t.Error("Transform with short buffer did not panic")
		}
	}()
	f.Transform(make([]float64, 4), make([]float64, 8))
}

func BenchmarkFFT2048(b *testing.B) {
	f, _ := NewFFT(2048, nil)
	re := make([]float64, 2048)
	im := make([]float64, 2048)
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 2048)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(re, src)
		for j := range im {
			im[j] = 0
		}
		f.Transform(re, im)
	}
}
