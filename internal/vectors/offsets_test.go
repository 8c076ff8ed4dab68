package vectors_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime/debug"
	"testing"

	"repro/internal/dsp"
	"repro/internal/population"
	"repro/internal/vectors"
	"repro/internal/webaudio"
)

// passOffsets straddles the ScriptProcessor's 32-quantum event boundary
// (captures at 96+31, 96+32 and 96+33 quanta see different retained
// compressor buffers) and includes the modal offset 0.
var passOffsets = []int{0, 1, 5, 31, 32, 33}

// sameFingerprint reports whether two fingerprints are bit-identical.
func sameFingerprint(a, b vectors.Fingerprint) bool {
	return a.Vector == b.Vector && a.Hash == b.Hash &&
		math.Float64bits(a.Sum) == math.Float64bits(b.Sum)
}

// scriptDC is the DC fingerprint as the published script defines it,
// built here with the public webaudio API and no render hint: hash the
// samples [4500, 5000) of the one-second 44.1 kHz offline render of a
// 10 kHz triangle through a DynamicsCompressor.
func scriptDC(t *testing.T, traits webaudio.Traits) vectors.Fingerprint {
	t.Helper()
	oc := webaudio.NewOfflineContext(44100, 44100, traits)
	oc.SetEngine(webaudio.EngineReference)
	osc := oc.NewOscillator(webaudio.Triangle, 10000)
	comp := oc.NewDynamicsCompressor()
	webaudio.Connect(osc, comp)
	webaudio.Connect(comp, oc.Destination())
	buf, err := oc.StartRendering()
	if err != nil {
		t.Fatal(err)
	}
	window := buf[4500:5000]
	sum := sha256.Sum256(dsp.AppendFloat32Bytes(nil, window))
	return vectors.Fingerprint{Vector: vectors.DC, Hash: hex.EncodeToString(sum[:]), Sum: dsp.SumAbs(window)}
}

// TestRunOffsetsMatchesFreshRuns is the differential gate on the one
// capture loop: every fingerprint of a multi-offset pass must equal, bit
// for bit, a fresh Run at that offset, for all seven vectors, under both
// engines, on 2016- and 2021-era stacks and with farbling on. It is also
// the oracle for the render hint: the block engine renders the quanta no
// capture reads under RenderUnobserved, the reference engine ignores the
// hint, so every block pass must equal the reference pass, and DC must
// equal the published script's full render.
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

	for _, st := range stacks {
		passes := map[webaudio.Engine]map[vectors.ID][]vectors.Fingerprint{}
		for _, engine := range []webaudio.Engine{webaudio.EngineBlock, webaudio.EngineReference} {
			passes[engine] = map[vectors.ID][]vectors.Fingerprint{}
			r := vectors.NewRunner(st.traits, st.rate)
			r.SetEngine(engine)
			for _, id := range vectors.All {
				pass, err := r.RunOffsets(id, passOffsets)
				if err != nil {
					t.Fatalf("%s %v %v: %v", st.name, engine, id, err)
				}
				if len(pass) != len(passOffsets) {
					t.Fatalf("%s %v %v: %d fingerprints for %d offsets", st.name, engine, id, len(pass), len(passOffsets))
				}
				passes[engine][id] = pass
				for i, off := range passOffsets {
					fresh, err := r.Run(id, off)
					if err != nil {
						t.Fatalf("%s %v %v offset %d: %v", st.name, engine, id, off, err)
					}
					if !sameFingerprint(pass[i], fresh) {
						t.Errorf("%s %v %v offset %d: pass (%s, %v) != fresh Run (%s, %v)",
							st.name, engine, id, off, pass[i].Hash, pass[i].Sum, fresh.Hash, fresh.Sum)
					}
				}
			}
		}
		for _, id := range vectors.All {
			blk, ref := passes[webaudio.EngineBlock][id], passes[webaudio.EngineReference][id]
			for i, off := range passOffsets {
				if !sameFingerprint(blk[i], ref[i]) {
					t.Errorf("%s %v offset %d: hinted block pass (%s, %v) != full reference pass (%s, %v)",
						st.name, id, off, blk[i].Hash, blk[i].Sum, ref[i].Hash, ref[i].Sum)
				}
			}
		}
		if want, got := scriptDC(t, st.traits), passes[webaudio.EngineBlock][vectors.DC][0]; !sameFingerprint(got, want) {
			t.Errorf("%s DC: (%s, %v) != published script's one-second render (%s, %v)",
				st.name, got.Hash, got.Sum, want.Hash, want.Sum)
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
