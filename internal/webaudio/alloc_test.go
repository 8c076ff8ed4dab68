package webaudio

import "testing"

// TestBlockRenderZeroAlloc pins the steady-state block engine at zero
// allocations per render quantum: after RenderQuanta has compiled the render
// program and the lazy per-node state (wavetables) exists,
// advancing the clock must not touch the heap. The graph deliberately spans
// the kernel set — k-rate and modulated gain, compressor, analyser — so a
// new kernel that allocates shows up here as a regression.
func TestBlockRenderZeroAlloc(t *testing.T) {
	prev := SetDefaultEngine(EngineBlock)
	defer SetDefaultEngine(prev)

	ctx := NewContext(44100, DefaultTraits())

	carrier := ctx.NewOscillator(Triangle, 10000)
	mod := ctx.NewOscillator(Sine, 50)

	am := ctx.NewGain(0.5)
	ConnectParam(mod, am.Gain) // audio-rate param → blockSample path
	Connect(carrier, am)

	dc := ctx.NewDynamicsCompressor()
	Connect(am, dc)

	an := ctx.NewAnalyser()
	Connect(dc, an)
	Connect(an, ctx.Destination())

	// Warm up: compiles the render program and builds wavetables.
	if err := ctx.RenderQuanta(2); err != nil {
		t.Fatalf("warmup: %v", err)
	}

	allocs := testing.AllocsPerRun(100, func() {
		if err := ctx.RenderQuanta(1); err != nil {
			t.Fatalf("RenderQuanta: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state block render allocates %.1f times per quantum, want 0", allocs)
	}

	// A hinted quantum runs the compressor's detector-only kernel; it must
	// not allocate either.
	allocs = testing.AllocsPerRun(100, func() {
		if err := ctx.RenderUnobserved(1); err != nil {
			t.Fatalf("RenderUnobserved: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state hinted block render allocates %.1f times per quantum, want 0", allocs)
	}
}
