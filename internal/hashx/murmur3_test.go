package hashx

import (
	"fmt"
	"testing"
	"testing/quick"
)

// Reference vectors from the canonical MurmurHash3 test suites (Appleby's
// C++ reference via the widely used Go/Python ports).
func TestSum128KnownVectors(t *testing.T) {
	cases := []struct {
		in     string
		seed   uint64
		h1, h2 uint64
	}{
		{"", 0, 0x0000000000000000, 0x0000000000000000},
		{"hello", 0, 0xcbd8a7b341bd9b02, 0x5b1e906a48ae1d19},
		{"hello, world", 0, 0x342fac623a5ebc8e, 0x4cdcbc079642414d},
		{"19 Jan 2038 at 3:14:07 AM", 0, 0xb89e5988b737affc, 0x664fc2950231b2cb},
		{"The quick brown fox jumps over the lazy dog.", 0, 0xcd99481f9ee902c9, 0x695da1a38987b6e7},
	}
	for _, c := range cases {
		h1, h2 := Sum128([]byte(c.in), c.seed)
		if h1 != c.h1 || h2 != c.h2 {
			t.Errorf("Sum128(%q, %d) = (%#x, %#x), want (%#x, %#x)",
				c.in, c.seed, h1, h2, c.h1, c.h2)
		}
	}
}

// TestTailLengths exercises every tail branch (1..16 bytes + blocks).
func TestTailLengths(t *testing.T) {
	seen := map[[2]uint64]int{}
	for n := 0; n <= 48; n++ {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 7)
		}
		h1, h2 := Sum128(data, 0)
		d := [2]uint64{h1, h2}
		if prev, dup := seen[d]; dup {
			t.Errorf("lengths %d and %d collide", prev, n)
		}
		seen[d] = n
	}
}

// TestSeedSeparation: different seeds separate identical inputs.
func TestSeedSeparation(t *testing.T) {
	f := func(data []byte, s1, s2 uint16) bool {
		if s1 == s2 {
			return true
		}
		a1, a2 := Sum128(data, uint64(s1))
		b1, b2 := Sum128(data, uint64(s2))
		return a1 != b1 || a2 != b2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAvalanche: flipping one input bit flips roughly half the output bits.
func TestAvalanche(t *testing.T) {
	base := []byte("fingerprint-avalanche-probe-data!")
	b1, b2 := Sum128(base, 0)
	totalFlips := 0
	trials := 0
	for byteIdx := 0; byteIdx < len(base); byteIdx += 3 {
		for bit := 0; bit < 8; bit += 3 {
			mut := append([]byte(nil), base...)
			mut[byteIdx] ^= 1 << bit
			m1, m2 := Sum128(mut, 0)
			flips := popcount64(b1^m1) + popcount64(b2^m2)
			totalFlips += flips
			trials++
		}
	}
	mean := float64(totalFlips) / float64(trials)
	if mean < 48 || mean > 80 { // expect ≈ 64 of 128
		t.Errorf("avalanche mean flips = %.1f, want ≈ 64", mean)
	}
}

func popcount64(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestDeterminism(t *testing.T) {
	for i := 0; i < 10; i++ {
		data := []byte(fmt.Sprintf("input-%d", i))
		a1, a2 := Sum128(data, 31)
		b1, b2 := Sum128(data, 31)
		if a1 != b1 || a2 != b2 {
			t.Fatal("nondeterministic digest")
		}
	}
}

func BenchmarkSum128_4KiB(b *testing.B) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sum128(data, 0)
	}
}
