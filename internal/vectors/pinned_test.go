package vectors

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/mathx"
	"repro/internal/webaudio"
)

// TestVectorHashesPinned pins the render hashes themselves. The study
// goldens compare counts and entropies, which depend only on which users
// share a hash, so a change that moved every hash alike would pass them.
// For DefaultTraits and the engine's four trait corners at 44.1 kHz, and
// for DefaultTraits at the 48 kHz most devices draw (the live vectors
// render at the device rate), one SHA-256 over all seven vectors' hashes
// at capture offsets 0 and 5 must stay as recorded, under both engines.
func TestVectorHashesPinned(t *testing.T) {
	corner := func(edit func(*webaudio.Traits)) webaudio.Traits {
		tr := webaudio.DefaultTraits()
		edit(&tr)
		return tr
	}
	cases := []struct {
		name   string
		traits webaudio.Traits
		rate   float64
		want   string
	}{
		{"default", webaudio.DefaultTraits(), 0,
			"cdac240e54969e551eabfd3569624fcf1e24828e8a85f01d9e6126222d5ae68f"},
		{"default-48k", webaudio.DefaultTraits(), 48000,
			"dda034b791cbfc7e2c8405d7b28a8849f0ff2226e0587e32d4b0de45bb59f685"},
		{"fdlib-mix32", corner(func(tr *webaudio.Traits) {
			tr.Kernel = mathx.Fdlib
			tr.MixPrecision = webaudio.Mix32
		}), 0, "64af6dbe2be9b6f92305af64c78cafb9d4a8b340bda9c9f2ee8c9519f1f9b445"},
		{"lut1024-flush", corner(func(tr *webaudio.Traits) {
			tr.Kernel = mathx.Lut1024
			tr.FlushDenormals = true
		}), 0, "dc2a3ac5a2a3444a0f738448fefa550596bbda794971f80682af56a600ccaef7"},
		{"knee-predelay", corner(func(tr *webaudio.Traits) {
			tr.CompressorKneeEps = 3.1e-7
			tr.CompressorPreDelay = 262
		}), 0, "92432bd75a3be9d2a1c35b98289a0a5d94191deeaf0dff5da67da9063578cbe2"},
		{"fft-poly7", corner(func(tr *webaudio.Traits) {
			tr.FFTKernel = mathx.Poly7
		}), 0, "95b3e6288990cd91cfc7bb7e800bb36b0e6057c63647573184b78eb0683993e1"},
	}
	for _, tc := range cases {
		for _, e := range []webaudio.Engine{webaudio.EngineBlock, webaudio.EngineReference} {
			t.Run(tc.name+"/"+e.String(), func(t *testing.T) {
				r := NewRunner(tc.traits, tc.rate)
				r.SetEngine(e)
				h := sha256.New()
				var per []string
				for _, id := range All {
					fps, err := r.RunOffsets(id, []int{0, 5})
					if err != nil {
						t.Fatalf("%v: %v", id, err)
					}
					for _, fp := range fps {
						h.Write([]byte(fp.Hash))
						per = append(per, id.String()+" "+fp.Hash)
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
					t.Errorf("digest %s, want %s", got, tc.want)
					for _, line := range per {
						t.Log(line)
					}
				}
			})
		}
	}
}
