// Package mathx provides interchangeable implementations ("kernels") of the
// transcendental math functions used by audio DSP code.
//
// Real browsers differ in how their audio stacks compute sin, exp and
// pow: platform libm implementations, hand-rolled polynomial approximations
// inside the audio engine, SIMD lookup tables in DSP libraries, and so on.
// Those tiny last-ulp differences are precisely what Web Audio
// fingerprinting exploits (see the paper's §5 "Causal Factors" and the
// Mozilla bug it cites about floating-point differences between platforms).
//
// A Kernel bundles one coherent set of such implementations. The webaudio
// engine is parameterized by a Kernel, so two simulated platforms with
// different kernels produce genuinely different rendered float32 buffers —
// and therefore different fingerprints — while two platforms sharing a
// kernel collide, exactly like real devices sharing an audio stack.
package mathx

// Kernel is one coherent implementation of the transcendental functions the
// audio engine needs. Implementations must be deterministic and
// goroutine-safe.
type Kernel interface {
	// Name identifies the kernel (stable across runs; part of the
	// simulated platform's identity). It is the first field of
	// platform.Device.AudioStackKey, which keys the render cache, so no
	// two kernels may share one.
	Name() string
	// Sin returns the sine of x (radians).
	Sin(x float64) float64
	// Exp returns e**x.
	Exp(x float64) float64
	// Log returns the natural logarithm of x.
	Log(x float64) float64
	// Pow returns x**y.
	Pow(x, y float64) float64
}
