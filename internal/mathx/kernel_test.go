package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

// builtinKernels lists the package's built-in kernels.
func builtinKernels() []Kernel {
	return []Kernel{Libm, Poly7, Lut4096, Lut1024, Fdlib}
}

// allKernels returns every built-in kernel plus a perturbed one.
func allKernels() []Kernel {
	return append(builtinKernels(), Perturbed(Libm, "libm+fma", 3e-7))
}

// TestKernelNamesDistinct: a kernel's name is the first field of
// platform.Device.AudioStackKey, which keys the render cache, so two
// built-in kernels sharing a name would share cached renders.
func TestKernelNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range builtinKernels() {
		if k.Name() == "" || seen[k.Name()] {
			t.Errorf("kernel name %q empty or duplicated", k.Name())
		}
		seen[k.Name()] = true
	}
}

// TestSinAccuracy checks each kernel approximates sine within its class's
// tolerance over a wide argument range.
func TestSinAccuracy(t *testing.T) {
	tolerances := map[string]float64{
		"libm":     0,
		"poly7":    3e-4,
		"lut4096":  5e-6,
		"lut1024":  1e-4,
		"fdlib":    1e-6,
		"libm+fma": 1e-5,
	}
	for _, k := range allKernels() {
		tol := tolerances[k.Name()]
		for x := -50.0; x <= 50.0; x += 0.137 {
			got := k.Sin(x)
			want := math.Sin(x)
			if diff := math.Abs(got - want); diff > tol {
				t.Fatalf("%s.Sin(%g) = %g, want %g (|diff| %g > tol %g)",
					k.Name(), x, got, want, diff, tol)
			}
		}
	}
}

// TestCosMatchesShiftedSin: the FFT builds its cosine twiddles as
// Sin(θ + π/2) through the kernel (dsp.NewFFT), so every kernel's shifted
// sine must track the cosine.
func TestCosMatchesShiftedSin(t *testing.T) {
	for _, k := range allKernels() {
		for x := -10.0; x <= 10.0; x += 0.31 {
			got := k.Sin(x + math.Pi/2)
			want := math.Cos(x)
			if math.Abs(got-want) > 1e-2 {
				t.Fatalf("%s.Sin(%g + π/2) = %g, want ≈ cos = %g", k.Name(), x, got, want)
			}
		}
	}
}

func TestExpAccuracy(t *testing.T) {
	for _, k := range allKernels() {
		for x := -20.0; x <= 20.0; x += 0.173 {
			got := k.Exp(x)
			want := math.Exp(x)
			rel := math.Abs(got-want) / want
			if rel > 1e-4 {
				t.Fatalf("%s.Exp(%g): rel err %g", k.Name(), x, rel)
			}
		}
	}
}

func TestLogExpRoundTrip(t *testing.T) {
	for _, k := range allKernels() {
		f := func(x float64) bool {
			x = math.Abs(x)
			if x == 0 || math.IsInf(x, 0) || math.IsNaN(x) || x > 1e100 || x < 1e-100 {
				return true
			}
			got := k.Exp(k.Log(x))
			return math.Abs(got-x)/x < 1e-5
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: exp(log(x)) != x: %v", k.Name(), err)
		}
	}
}

func TestPowBasics(t *testing.T) {
	for _, k := range allKernels() {
		cases := []struct{ x, y float64 }{
			{2, 10}, {10, -3}, {1.5, 2.5}, {0.25, 0.5}, {3, 0},
		}
		for _, c := range cases {
			got := k.Pow(c.x, c.y)
			want := math.Pow(c.x, c.y)
			if math.Abs(got-want)/want > 1e-4 {
				t.Errorf("%s.Pow(%g,%g) = %g, want ≈ %g", k.Name(), c.x, c.y, got, want)
			}
		}
	}
}

// TestKernelsDiverge asserts the core fingerprinting property: different
// kernels do NOT produce bit-identical outputs when accumulated over a
// signal-like workload. If this ever fails, platform classes collapse.
func TestKernelsDiverge(t *testing.T) {
	ks := allKernels()
	sums := make(map[string]float64, len(ks))
	accumulate := func(k Kernel) float64 {
		var s float64
		phase := 0.0
		for i := 0; i < 4096; i++ {
			phase += 2 * math.Pi * 10000 / 44100
			s += float64(float32(k.Sin(phase)))
		}
		return s
	}
	for _, k := range ks {
		sums[k.Name()] = accumulate(k)
	}
	seen := map[float64]string{}
	for name, s := range sums {
		if prev, dup := seen[s]; dup {
			t.Errorf("kernels %q and %q produced identical accumulated output %v", prev, name, s)
		}
		seen[s] = name
	}
}

// TestKernelsDeterministic asserts repeated evaluation is bit-identical.
func TestKernelsDeterministic(t *testing.T) {
	for _, k := range allKernels() {
		for x := -5.0; x < 5.0; x += 0.7 {
			if k.Sin(x) != k.Sin(x) || k.Exp(x) != k.Exp(x) {
				t.Fatalf("%s is nondeterministic at %g", k.Name(), x)
			}
		}
	}
}

func TestPerturbedDiffersFromBase(t *testing.T) {
	p := Perturbed(Libm, "test-perturb", 1e-9)
	diff := false
	for x := 0.1; x < 10; x += 0.1 {
		if p.Sin(x) != Libm.Sin(x) {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("perturbed kernel identical to base over test range")
	}
}

func BenchmarkKernelSin(b *testing.B) {
	for _, k := range allKernels() {
		b.Run(k.Name(), func(b *testing.B) {
			x := 0.0
			var s float64
			for i := 0; i < b.N; i++ {
				x += 1.4247
				s += k.Sin(x)
			}
			_ = s
		})
	}
}
