package webaudio

import (
	"fmt"
	"math"
	"testing"
)

// buildHintGraph wires the compressor under test: a triangle carrier,
// amplitude-modulated at audio rate so the detector sees attacks and
// releases, into a DynamicsCompressor into the destination.
func buildHintGraph(ctx *Context) *DynamicsCompressorNode {
	carrier := ctx.NewOscillator(Triangle, 10000)
	mod := ctx.NewOscillator(Sine, 40)
	am := ctx.NewGain(0.5)
	ConnectParam(mod, am.Gain)
	Connect(carrier, am)
	comp := ctx.NewDynamicsCompressor()
	Connect(am, comp)
	Connect(comp, ctx.Destination())
	return comp
}

// TestRenderUnobservedMatchesFullRender pins the hint's contract on the
// compressor, under every differential trait corner: on the block engine a
// hinted quantum writes silence, and every quantum rendered in full after
// hinted ones equals, bit for bit, the reference engine's render of the
// same quantum, which ignores the hint. The hint counter sees only the
// block engine's hinted quanta.
func TestRenderUnobservedMatchesFullRender(t *testing.T) {
	// Hinted runs, full runs, alternating: the first quantum is hinted,
	// and the detector crosses several hinted spans.
	spans := []struct {
		hinted bool
		n      int
	}{{true, 3}, {false, 2}, {true, 7}, {false, 1}, {true, 1}, {false, 4}}
	for ti, tr := range diffTraitsPool() {
		t.Run(fmt.Sprintf("traits=%d", ti), func(t *testing.T) {
			blk := NewContext(44100, tr)
			blk.SetEngine(EngineBlock)
			bComp := buildHintGraph(blk)
			ref := NewContext(44100, tr)
			ref.SetEngine(EngineReference)
			rComp := buildHintGraph(ref)

			var hinted int64
			before := Stats()
			q := 0
			for _, sp := range spans {
				for i := 0; i < sp.n; i++ {
					render := blk.RenderQuanta
					if sp.hinted {
						render = blk.RenderUnobserved
						hinted++
					}
					if err := render(1); err != nil {
						t.Fatal(err)
					}
					if err := ref.RenderUnobserved(1); err != nil {
						t.Fatal(err)
					}
					for s := 0; s < RenderQuantum; s++ {
						got, want := bComp.output[s], rComp.output[s]
						if sp.hinted {
							want = 0
						}
						if math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("quantum %d (hinted %v) sample %d: block %v, want %v", q, sp.hinted, s, got, want)
						}
					}
					q++
				}
			}
			after := Stats()
			if got := after.UnobservedQuanta - before.UnobservedQuanta; got != hinted {
				t.Errorf("UnobservedQuanta grew by %d, want %d (block hinted quanta only)", got, hinted)
			}
			if got := after.Quanta - before.Quanta; got != 2*int64(q) {
				t.Errorf("Quanta grew by %d, want %d (hinted quanta still count)", got, 2*q)
			}
		})
	}
}

// TestOfflineRecordsHintedQuanta pins what the DC vector relies on: an
// offline context records from frame 0 whichever call advances its clock,
// so a buffer whose first quanta were hinted keeps every later sample at
// its index, farbled with that index's noise, and StartRendering renders
// only the quanta not yet advanced.
func TestOfflineRecordsHintedQuanta(t *testing.T) {
	const length, hinted = 1000, 5 // 8 quanta, the last partial
	tr := DefaultTraits()
	tr.Farble = &FarbleConfig{Seed: 0xfa4b, Epsilon: 1e-4}

	full := NewOfflineContext(length, 44100, tr)
	full.SetEngine(EngineReference)
	buildHintGraph(full.Context)
	want, err := full.StartRendering()
	if err != nil {
		t.Fatal(err)
	}

	oc := NewOfflineContext(length, 44100, tr)
	oc.SetEngine(EngineBlock)
	buildHintGraph(oc.Context)
	if err := oc.RenderUnobserved(hinted); err != nil {
		t.Fatal(err)
	}
	before := Stats().Quanta
	got, err := oc.StartRendering()
	if err != nil {
		t.Fatal(err)
	}
	if n := Stats().Quanta - before; n != 8-hinted {
		t.Errorf("StartRendering rendered %d quanta after %d hinted, want %d", n, hinted, 8-hinted)
	}
	if len(got) != length {
		t.Fatalf("rendered %d frames, want %d", len(got), length)
	}
	for i := hinted * RenderQuantum; i < length; i++ {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("frame %d: %v after hinted quanta, want %v", i, got[i], want[i])
		}
	}
	if _, err := NewOfflineContext(0, 44100, tr).StartRendering(); err == nil {
		t.Error("StartRendering of a zero-length context should error")
	}
}
