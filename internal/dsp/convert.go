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

// SumAbs returns Σ|x| over samples in float64, the reduction the classic
// FingerprintJS DynamicsCompressor vector applies to the rendered buffer.
func SumAbs(samples []float32) float64 {
	var s float64
	for _, v := range samples {
		s += math.Abs(float64(v))
	}
	return s
}
