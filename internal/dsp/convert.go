package dsp

import (
	"encoding/binary"
	"math"
)

// LinearToDecibels converts a linear magnitude to dBFS, matching the Web
// Audio spec's 20·log10(v) with −∞ clamped by the caller.
func LinearToDecibels(v float64) float64 {
	if v <= 0 {
		return math.Inf(-1)
	}
	return 20 * math.Log10(v)
}

// DecibelsToLinear converts dB to a linear gain factor.
func DecibelsToLinear(db float64) float64 {
	return math.Pow(10, db/20)
}

// AppendFloat32Bytes appends samples to dst as little-endian IEEE-754
// bytes, the canonical form fingerprint hashes are computed over, and
// returns the extended slice. The layout matches what a browser script
// hashing a Float32Array ends up with. Appending to a reused buffer with
// room for the samples allocates nothing.
func AppendFloat32Bytes(dst []byte, samples []float32) []byte {
	for _, s := range samples {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(s))
	}
	return dst
}

// BytesToFloat32Slice inverts AppendFloat32Bytes. The byte slice length
// must be a multiple of 4.
func BytesToFloat32Slice(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// SumAbs returns Σ|x| over samples in float64, the reduction the classic
// FingerprintJS DynamicsCompressor vector applies to the rendered buffer.
func SumAbs(samples []float32) float64 {
	var s float64
	for _, v := range samples {
		s += math.Abs(float64(v))
	}
	return s
}

// MaxAbs returns max|x| over samples, 0 for an empty slice.
func MaxAbs(samples []float32) float64 {
	var m float64
	for _, v := range samples {
		if a := math.Abs(float64(v)); a > m {
			m = a
		}
	}
	return m
}

// FlushDenormals32 returns v with subnormal float32 values flushed to zero.
// Audio stacks built with -ffast-math / FTZ hardware flags do this; it is
// one of the platform-identity knobs.
func FlushDenormals32(v float32) float32 {
	if v != 0 && math.Abs(float64(v)) < math.SmallestNonzeroFloat32*8388608 { // < 2^-126
		return 0
	}
	return v
}
