package vectors_test

import (
	"math"
	"runtime/debug"
	"testing"

	"repro/internal/population"
	"repro/internal/vectors"
	"repro/internal/webaudio"
)

// passOffsets straddles the ScriptProcessor's 32-quantum event boundary
// (captures at 96+31, 96+32 and 96+33 quanta see different retained
// compressor buffers) and includes the modal offset 0.
var passOffsets = []int{0, 1, 5, 31, 32, 33}

// TestRunOffsetsMatchesFreshRuns is the differential gate on the one
// capture loop: every fingerprint of a multi-offset pass must equal, bit
// for bit, a fresh Run at that offset, for all seven vectors and the
// extension vectors, under both engines, on 2016- and 2021-era stacks and
// with farbling on.
func TestRunOffsetsMatchesFreshRuns(t *testing.T) {
	type stack struct {
		name   string
		traits webaudio.Traits
		rate   float64
	}
	var stacks []stack
	for _, era := range []string{"2016", "2021"} {
		for _, d := range population.Sample(population.Config{Seed: 33, N: 2, Era: era}) {
			stacks = append(stacks, stack{era + "/" + d.ID, d.AudioTraits(), d.SampleRate})
		}
	}
	farbled := webaudio.DefaultTraits()
	farbled.Farble = &webaudio.FarbleConfig{Seed: 0xfa4b, Epsilon: 1e-4}
	stacks = append(stacks, stack{"farbled", farbled, 48000})

	ids := append(append([]vectors.ID(nil), vectors.All...), vectors.Extended...)
	for _, st := range stacks {
		for _, engine := range []webaudio.Engine{webaudio.EngineBlock, webaudio.EngineReference} {
			r := vectors.NewRunner(st.traits, st.rate)
			r.SetEngine(engine)
			for _, id := range ids {
				pass, err := r.RunOffsets(id, passOffsets)
				if err != nil {
					t.Fatalf("%s %v %v: %v", st.name, engine, id, err)
				}
				if len(pass) != len(passOffsets) {
					t.Fatalf("%s %v %v: %d fingerprints for %d offsets", st.name, engine, id, len(pass), len(passOffsets))
				}
				for i, off := range passOffsets {
					fresh, err := r.Run(id, off)
					if err != nil {
						t.Fatalf("%s %v %v offset %d: %v", st.name, engine, id, off, err)
					}
					if pass[i].Vector != fresh.Vector || pass[i].Hash != fresh.Hash ||
						math.Float64bits(pass[i].Sum) != math.Float64bits(fresh.Sum) {
						t.Errorf("%s %v %v offset %d: pass (%s, %v) != fresh Run (%s, %v)",
							st.name, engine, id, off, pass[i].Hash, pass[i].Sum, fresh.Hash, fresh.Sum)
					}
				}
			}
		}
	}
}

// TestRunOffsetsValidation: offsets must be non-negative and ascending, and
// an empty list renders nothing.
func TestRunOffsetsValidation(t *testing.T) {
	r := vectors.NewRunner(webaudio.DefaultTraits(), 0)
	for _, bad := range [][]int{{-1}, {3, 2}, {0, 5, 4}} {
		if _, err := r.RunOffsets(vectors.Hybrid, bad); err == nil {
			t.Errorf("offsets %v accepted", bad)
		}
		if _, err := r.RunOffsets(vectors.DC, bad); err == nil {
			t.Errorf("DC offsets %v accepted", bad)
		}
	}
	before := webaudio.Stats().Contexts
	fps, err := r.RunOffsets(vectors.FFT, nil)
	if err != nil || len(fps) != 0 {
		t.Errorf("empty offsets = %v, %v", fps, err)
	}
	if n := webaudio.Stats().Contexts - before; n != 0 {
		t.Errorf("empty offsets built %d contexts", n)
	}
}

// TestRunOffsetsCaptureAllocs pins the pass's reuse of its spectrum and
// byte buffers: beyond the pass's fixed set-up, each extra capture
// allocates only its hex digest (one string). The collector is off while
// it counts: a collection empties sync.Pools such as fmt's printer cache,
// and refilling them would add an allocation the pass did not make.
func TestRunOffsetsCaptureAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := vectors.NewRunner(webaudio.DefaultTraits(), 0)
	many := make([]int, 16)
	for i := range many {
		many[i] = i
	}
	for _, id := range []vectors.ID{vectors.FFT, vectors.Hybrid, vectors.AM} {
		allocs := func(offsets []int) float64 {
			return testing.AllocsPerRun(5, func() {
				if _, err := r.RunOffsets(id, offsets); err != nil {
					t.Fatal(err)
				}
			})
		}
		one, all := allocs(many[:1]), allocs(many)
		if extra := all - one; extra > float64(len(many)-1) {
			t.Errorf("%v: %v allocations for %d captures vs %v for one: %.0f extra, want at most %d (one digest per capture)",
				id, all, len(many), one, extra, len(many)-1)
		}
	}
}
