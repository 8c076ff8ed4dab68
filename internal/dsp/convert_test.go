package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDecibelConversions(t *testing.T) {
	cases := []struct{ lin, db float64 }{
		{1, 0},
		{10, 20},
		{0.1, -20},
		{100, 40},
	}
	for _, c := range cases {
		if got := LinearToDecibels(c.lin); math.Abs(got-c.db) > 1e-9 {
			t.Errorf("LinearToDecibels(%g) = %g, want %g", c.lin, got, c.db)
		}
		if got := DecibelsToLinear(c.db); math.Abs(got-c.lin) > 1e-9*c.lin {
			t.Errorf("DecibelsToLinear(%g) = %g, want %g", c.db, got, c.lin)
		}
	}
	if !math.IsInf(LinearToDecibels(0), -1) {
		t.Error("LinearToDecibels(0) should be -Inf")
	}
	if !math.IsInf(LinearToDecibels(-1), -1) {
		t.Error("LinearToDecibels(-1) should be -Inf")
	}
}

func TestDecibelRoundTripProperty(t *testing.T) {
	f := func(db float64) bool {
		if math.IsNaN(db) || math.Abs(db) > 300 {
			return true
		}
		back := LinearToDecibels(DecibelsToLinear(db))
		return math.Abs(back-db) < 1e-9*(1+math.Abs(db))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat32BytesRoundTrip(t *testing.T) {
	f := func(a, b, c float32) bool {
		in := []float32{a, b, c}
		out := BytesToFloat32Slice(AppendFloat32Bytes(nil, in))
		for i := range in {
			// Compare bit patterns so NaNs round-trip too.
			if math.Float32bits(in[i]) != math.Float32bits(out[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat32BytesLayout(t *testing.T) {
	b := AppendFloat32Bytes([]byte{0xff}, []float32{1.0})
	// The prefix stays, then 1.0f = 0x3f800000 little-endian.
	want := []byte{0xff, 0x00, 0x00, 0x80, 0x3f}
	if len(b) != len(want) {
		t.Fatalf("len = %d, want %d", len(b), len(want))
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, b[i], want[i])
		}
	}
}

func TestSumAbsAndMaxAbs(t *testing.T) {
	s := []float32{1, -2, 3, -4}
	if got := SumAbs(s); got != 10 {
		t.Errorf("SumAbs = %g, want 10", got)
	}
	if got := MaxAbs(s); got != 4 {
		t.Errorf("MaxAbs = %g, want 4", got)
	}
	if got := MaxAbs(nil); got != 0 {
		t.Errorf("MaxAbs(nil) = %g, want 0", got)
	}
}

func TestFlushDenormals32(t *testing.T) {
	if got := FlushDenormals32(1e-40); got != 0 {
		t.Errorf("subnormal not flushed: %g", got)
	}
	if got := FlushDenormals32(1e-20); got != 1e-20 {
		t.Errorf("normal flushed: %g", got)
	}
	if got := FlushDenormals32(0); got != 0 {
		t.Errorf("zero changed: %g", got)
	}
	if got := FlushDenormals32(-1e-40); got != 0 {
		t.Errorf("negative subnormal not flushed: %g", got)
	}
}

func TestBlackmanWindowShape(t *testing.T) {
	w := BlackmanWindow(2048, nil)
	if len(w) != 2048 {
		t.Fatalf("len = %d", len(w))
	}
	// Spec coefficients: w[0] = 0.42 - 0.5 + 0.08 = 0.
	if math.Abs(w[0]) > 1e-12 {
		t.Errorf("w[0] = %g, want 0", w[0])
	}
	// Peak near the center ≈ 1.
	if math.Abs(w[1024]-1) > 1e-3 {
		t.Errorf("w[n/2] = %g, want ≈ 1", w[1024])
	}
	// All values in [-eps, 1].
	for i, v := range w {
		if v < -1e-9 || v > 1+1e-9 {
			t.Fatalf("w[%d] = %g out of range", i, v)
		}
	}
}

func TestHannWindowSymmetry(t *testing.T) {
	w := HannWindow(64)
	for i := 1; i < 32; i++ {
		if math.Abs(w[i]-w[64-i]) > 1e-12 {
			t.Fatalf("Hann asymmetric at %d: %g vs %g", i, w[i], w[64-i])
		}
	}
}

func TestApplyWindow(t *testing.T) {
	buf := []float64{1, 2, 3}
	ApplyWindow(buf, []float64{0.5, 0.5, 0.5})
	want := []float64{0.5, 1, 1.5}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("buf = %v", buf)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	ApplyWindow(buf, []float64{1})
}
