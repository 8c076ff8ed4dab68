package mathx

import "math"

// ---------------------------------------------------------------------------
// Reference kernel: Go's math package (correctly-rounded-ish libm). Stands in
// for a mainstream desktop libm (e.g. glibc on x86-64).

// Libm is the reference kernel backed directly by Go's math package.
var Libm Kernel = libmKernel{}

type libmKernel struct{}

func (libmKernel) Name() string             { return "libm" }
func (libmKernel) Sin(x float64) float64    { return math.Sin(x) }
func (libmKernel) Exp(x float64) float64    { return math.Exp(x) }
func (libmKernel) Log(x float64) float64    { return math.Log(x) }
func (libmKernel) Pow(x, y float64) float64 { return math.Pow(x, y) }

// ---------------------------------------------------------------------------
// Polynomial kernel: a minimax-style polynomial approximation after range
// reduction. It stands in for hand-rolled vectorizable approximations found
// inside audio engines and mobile DSP libraries: close to libm but not
// bit-identical.

// Poly7 approximates sine with a degree-7 polynomial (float64 ops).
var Poly7 Kernel = polyKernel{}

type polyKernel struct{}

func (polyKernel) Name() string { return "poly7" }

// reduce maps x into [-pi, pi) and returns it.
func reduce(x float64) float64 {
	const twoPi = 2 * math.Pi
	x = math.Mod(x, twoPi)
	if x >= math.Pi {
		x -= twoPi
	} else if x < -math.Pi {
		x += twoPi
	}
	return x
}

func (p polyKernel) Sin(x float64) float64 {
	x = reduce(x)
	// Fold into [-pi/2, pi/2] where the Taylor-style polynomial behaves.
	if x > math.Pi/2 {
		x = math.Pi - x
	} else if x < -math.Pi/2 {
		x = -math.Pi - x
	}
	x2 := x * x
	// sin x ≈ x (1 - x²/6 (1 - x²/20 (1 - x²/42)))
	return x * (1 - x2/6*(1-x2/20*(1-x2/42)))
}

func (p polyKernel) Exp(x float64) float64 {
	// exp(x) = 2**(x/ln2); split into integer and fractional parts and use a
	// short polynomial for the fractional exponent.
	const log2e = 1 / math.Ln2
	t := x * log2e
	n := math.Round(t)
	f := (t - n) * math.Ln2
	// Degree-7 Taylor for e**f, f ∈ [-ln2/2, ln2/2].
	pf := 1 + f*(1+f/2*(1+f/3*(1+f/4*(1+f/5*(1+f/6*(1+f/7))))))
	return math.Ldexp(pf, int(n))
}

func (p polyKernel) Log(x float64) float64 {
	if x <= 0 {
		return math.Log(x) // preserve -Inf / NaN semantics
	}
	frac, exp := math.Frexp(x) // x = frac * 2**exp, frac ∈ [0.5, 1)
	// atanh-based series: ln(frac) = 2 atanh((frac-1)/(frac+1)).
	z := (frac - 1) / (frac + 1)
	z2 := z * z
	ln := 2 * z * (1 + z2*(1.0/3+z2*(1.0/5+z2*(1.0/7+z2*(1.0/9+z2*(1.0/11+z2/13))))))
	return ln + float64(exp)*math.Ln2
}

func (p polyKernel) Pow(x, y float64) float64 {
	if x == 0 || x < 0 {
		return math.Pow(x, y)
	}
	return p.Exp(y * p.Log(x))
}

// ---------------------------------------------------------------------------
// Lookup-table kernels: interpolated sine tables, the classic embedded /
// wavetable approach. Table size controls the accuracy class.

// Lut4096 uses a 4096-entry linearly interpolated sine table.
var Lut4096 Kernel = newLutKernel("lut4096", 4096)

// Lut1024 uses a 1024-entry table; coarser, typical of low-power stacks.
var Lut1024 Kernel = newLutKernel("lut1024", 1024)

type lutKernel struct {
	name  string
	table []float64 // one full period of sine, len+1 entries (wrap)
}

func newLutKernel(name string, n int) lutKernel {
	// Midpoint-sampled table (entries at (i+0.5)·2π/n): avoids storing the
	// exact zeros/ones of grid sampling, a common wavetable layout. The
	// interpolation bias relative to libm is ~1−cos(π/n), comfortably above
	// float32 resolution — which is what makes this lineage fingerprintable.
	t := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		t[i] = math.Sin(2 * math.Pi * (float64(i) + 0.5) / float64(n))
	}
	return lutKernel{name: name, table: t}
}

func (l lutKernel) Name() string { return l.name }

func (l lutKernel) Sin(x float64) float64 {
	n := len(l.table) - 1
	// Map x to table position: entry i holds sin at (i+0.5)·2π/n.
	pos := x/(2*math.Pi)*float64(n) - 0.5
	pos = math.Mod(pos, float64(n))
	if pos < 0 {
		pos += float64(n)
	}
	i := int(pos)
	frac := pos - float64(i)
	return l.table[i] + (l.table[i+1]-l.table[i])*frac
}

// Non-trig functions delegate to libm: real table-based stacks typically only
// specialize the oscillator path.
func (l lutKernel) Exp(x float64) float64    { return math.Exp(x) }
func (l lutKernel) Log(x float64) float64    { return math.Log(x) }
func (l lutKernel) Pow(x, y float64) float64 { return math.Pow(x, y) }

// ---------------------------------------------------------------------------
// fdlibm-style kernel: same algorithms as libm but with a deliberately
// different (coarser) payne–hanek-free argument reduction, standing in for
// an independently developed libm lineage (e.g. Bionic vs glibc vs MSVCRT).

// Fdlib approximates an independent libm lineage.
var Fdlib Kernel = fdlibKernel{}

type fdlibKernel struct{}

func (fdlibKernel) Name() string { return "fdlib" }

func (fdlibKernel) Sin(x float64) float64 {
	// Cody–Waite two-constant reduction to r ∈ [-π/2, π/2], then this
	// lineage's own degree-11 Taylor kernel. Its error (≲ 6e-7 at the range
	// edge) sits above float32 resolution, so buffers rendered through it
	// differ visibly from libm's — while agreeing to six decimal places.
	const (
		pio2hi = 1.57079632679489655800e+00
		pio2lo = 6.12323399573676603587e-17
	)
	k := math.Round(x / (pio2hi * 2))
	r := x - k*2*pio2hi - k*2*pio2lo
	r2 := r * r
	s := r * (1 - r2/6*(1-r2/20*(1-r2/42*(1-r2/72*(1-r2/110)))))
	if int64(k)&1 != 0 {
		s = -s // sin(r + kπ) = (-1)^k sin(r)
	}
	return s
}

func (fdlibKernel) Exp(x float64) float64 {
	// exp with split reduction; differs from stdlib in the low bits.
	const log2e = 1 / math.Ln2
	n := math.Round(x * log2e)
	hi := x - n*6.93147180369123816490e-01
	lo := n * 1.90821492927058770002e-10
	r := hi - lo
	// Degree-6 polynomial for exp(r), r ∈ [-ln2/2, ln2/2].
	p := 1 + r*(1+r/2*(1+r/3*(1+r/4*(1+r/5*(1+r/6)))))
	return math.Ldexp(p, int(n))
}

func (fdlibKernel) Log(x float64) float64 { return math.Log(x) }
func (f fdlibKernel) Pow(x, y float64) float64 {
	if x <= 0 {
		return math.Pow(x, y)
	}
	return f.Exp(y * math.Log(x))
}

// ---------------------------------------------------------------------------
// Perturbed kernels: a base kernel with a deterministic sub-ulp-scale bias on
// selected operations. These stand in for compiler/flag-level differences
// (FMA contraction, flush-to-zero, vectorization order) within a single libm
// lineage — distinctions finer than a whole different algorithm but still
// fingerprintable once accumulated over thousands of samples.

// Perturbed derives a kernel from base whose Sin/Exp results are nudged by
// eps relatively. Platform code builds these on demand with stable names.
func Perturbed(base Kernel, name string, eps float64) Kernel {
	return perturbedKernel{base: base, name: name, eps: eps}
}

type perturbedKernel struct {
	base Kernel
	name string
	eps  float64
}

func (p perturbedKernel) Name() string          { return p.name }
func (p perturbedKernel) Sin(x float64) float64 { return p.base.Sin(x) * (1 + p.eps) }
func (p perturbedKernel) Exp(x float64) float64 { return p.base.Exp(x) * (1 + p.eps) }
func (p perturbedKernel) Log(x float64) float64 { return p.base.Log(x) }
func (p perturbedKernel) Pow(x, y float64) float64 {
	return p.base.Pow(x, y) * (1 + p.eps)
}
