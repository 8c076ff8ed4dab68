package vectors

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/mathx"
	"repro/internal/webaudio"
)

func defaultRunner() *Runner { return NewRunner(webaudio.DefaultTraits(), 0) }

func TestIDStringAndParse(t *testing.T) {
	for _, id := range All {
		s := id.String()
		if strings.HasPrefix(s, "ID(") {
			t.Errorf("vector %d has no name", int(id))
		}
		back, err := ParseID(s)
		if err != nil || back != id {
			t.Errorf("ParseID(%q) = %v, %v", s, back, err)
		}
	}
	// Biquad Sweep and Shaper are not among the paper's seven.
	for _, name := range []string{"bogus", "Biquad Sweep", "Shaper"} {
		if _, err := ParseID(name); err == nil {
			t.Errorf("ParseID accepted %q", name)
		}
	}
	if s := ID(99).String(); s != "ID(99)" {
		t.Errorf("unknown ID string = %q", s)
	}
}

func TestAllVectorsProduceFingerprints(t *testing.T) {
	r := defaultRunner()
	fps, err := r.RunAll(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 7 {
		t.Fatalf("RunAll returned %d fingerprints", len(fps))
	}
	seen := map[string]ID{}
	for i, fp := range fps {
		if fp.Vector != All[i] {
			t.Errorf("fingerprint %d has vector %v, want %v", i, fp.Vector, All[i])
		}
		if len(fp.Hash) != 64 {
			t.Errorf("%v: hash length %d, want 64 hex chars", fp.Vector, len(fp.Hash))
		}
		if prev, dup := seen[fp.Hash]; dup {
			t.Errorf("vectors %v and %v produced the same hash", prev, fp.Vector)
		}
		seen[fp.Hash] = fp.Vector
		if fp.Sum == 0 {
			t.Errorf("%v: zero summary — graph produced silence?", fp.Vector)
		}
	}
}

// TestDCDeterministicAcrossOffsets: DC ignores capture offsets entirely —
// the property that makes it the only perfectly stable vector (Table 1).
func TestDCDeterministicAcrossOffsets(t *testing.T) {
	r := defaultRunner()
	base, err := r.Run(DC, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{1, 5, 25} {
		fp, err := r.Run(DC, off)
		if err != nil {
			t.Fatal(err)
		}
		if fp.Hash != base.Hash {
			t.Errorf("DC hash changed with capture offset %d", off)
		}
	}
}

// TestFFTBasedVectorsVaryWithOffset: every analyser-path vector must yield a
// different fingerprint when the capture point shifts — the fickleness
// mechanism.
func TestFFTBasedVectorsVaryWithOffset(t *testing.T) {
	r := defaultRunner()
	for _, id := range FFTBased {
		a, err := r.Run(id, 0)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		b, err := r.Run(id, 4)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if a.Hash == b.Hash {
			t.Errorf("%v: identical hash across capture offsets", id)
		}
	}
}

// TestRepeatabilityAtFixedOffset: same traits and offset ⇒ same hash. This
// is what lets same-platform users collide in the collation graph.
func TestRepeatabilityAtFixedOffset(t *testing.T) {
	for _, id := range All {
		a, err := defaultRunner().Run(id, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := defaultRunner().Run(id, 2)
		if err != nil {
			t.Fatal(err)
		}
		if a.Hash != b.Hash {
			t.Errorf("%v: nondeterministic at fixed offset", id)
		}
	}
}

// TestTraitsSeparateVectors: each platform-identity knob must separate at
// least the vectors it is supposed to affect.
func TestTraitsSeparateVectors(t *testing.T) {
	base := webaudio.DefaultTraits()

	variants := []struct {
		name    string
		mutate  func(*webaudio.Traits)
		affects []ID
	}{
		{
			name:    "kernel",
			mutate:  func(tr *webaudio.Traits) { tr.Kernel = mathx.Poly7 },
			affects: All,
		},
		{
			name:    "kneeEps",
			mutate:  func(tr *webaudio.Traits) { tr.CompressorKneeEps = 1e-4 },
			affects: []ID{DC, Hybrid, CustomSignal, MergedSignals, AM, FM},
		},
		{
			name:    "preDelay",
			mutate:  func(tr *webaudio.Traits) { tr.CompressorPreDelay = 260 },
			affects: []ID{DC, Hybrid},
		},
		{
			name:    "fftKernel",
			mutate:  func(tr *webaudio.Traits) { tr.FFTKernel = mathx.Perturbed(mathx.Libm, "fft-alt", 3e-7) },
			affects: FFTBased,
		},
	}
	for _, v := range variants {
		tr := base
		v.mutate(&tr)
		mod := NewRunner(tr, 0)
		ref := defaultRunner()
		for _, id := range v.affects {
			a, err := ref.Run(id, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := mod.Run(id, 0)
			if err != nil {
				t.Fatal(err)
			}
			if a.Hash == b.Hash {
				t.Errorf("trait %s did not separate vector %v", v.name, id)
			}
		}
	}
}

// TestFFTKernelDoesNotAffectDC: the FFT-library axis must split FFT-path
// classes without touching DC — the mechanism by which the population has
// more distinct FFT fingerprints than DC ones.
func TestFFTKernelDoesNotAffectDC(t *testing.T) {
	tr := webaudio.DefaultTraits()
	tr.FFTKernel = mathx.Perturbed(mathx.Libm, "fft-alt2", 5e-7)
	a, err := defaultRunner().Run(DC, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(tr, 0).Run(DC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Error("FFTKernel changed the DC fingerprint")
	}
}

func TestNegativeOffsetRejected(t *testing.T) {
	if _, err := defaultRunner().Run(FFT, -1); err == nil {
		t.Error("negative offset accepted")
	}
}

func TestCacheHitsAndKeySeparation(t *testing.T) {
	c := NewCache()
	r1 := defaultRunner()
	tr := webaudio.DefaultTraits()
	tr.Kernel = mathx.Fdlib
	r2 := NewRunner(tr, 0)

	a1, err := c.Run("stackA", r1, DC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("cache len %d after one run", c.Len())
	}
	a2, err := c.Run("stackA", r1, DC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Hash != a2.Hash {
		t.Error("cache returned different fingerprint")
	}
	if c.Len() != 1 {
		t.Error("cache miss on identical key")
	}
	b, err := c.Run("stackB", r2, DC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Hash == a1.Hash {
		t.Error("different stacks share a hash — key separation broken")
	}
	if c.Len() != 2 {
		t.Errorf("cache len %d, want 2", c.Len())
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache()
	r := defaultRunner()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			if _, err := c.Run("stack", r, DC, 0); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Errorf("cache len %d, want 1", c.Len())
	}
}

func BenchmarkVectorDC(b *testing.B) {
	r := defaultRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(DC, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVectorHybrid(b *testing.B) {
	r := defaultRunner()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(Hybrid, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllCached(b *testing.B) {
	c := NewCache()
	r := defaultRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, id := range All {
			if _, err := c.Run("stack", r, id, i%4); err != nil {
				b.Fatal(err)
			}
		}
	}
}
