package vectors

import (
	"testing"

	"repro/internal/mathx"
	"repro/internal/webaudio"
)

func TestExtendedVectorsProduceFingerprints(t *testing.T) {
	r := defaultRunner()
	seen := map[string]ID{}
	for _, id := range Extended {
		fp, err := r.Run(id, 0)
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		if fp.Vector != id || len(fp.Hash) != 64 || fp.Sum == 0 {
			t.Errorf("%v: bad fingerprint %+v", id, fp)
		}
		if prev, dup := seen[fp.Hash]; dup {
			t.Errorf("%v collides with %v", id, prev)
		}
		seen[fp.Hash] = id
	}
}

func TestExtendedNamesRoundTrip(t *testing.T) {
	for _, id := range Extended {
		name := id.String()
		if name == "" || name[0] == 'I' {
			t.Errorf("extension vector %d unnamed: %q", int(id), name)
		}
		back, err := ParseID(name)
		if err != nil || back != id {
			t.Errorf("ParseID(%q) = %v, %v", name, back, err)
		}
	}
}

func TestExtendedVectorsPlatformSensitive(t *testing.T) {
	ref := defaultRunner()
	tr := webaudio.DefaultTraits()
	tr.Kernel = mathx.Fdlib
	alt := NewRunner(tr, 0)
	for _, id := range Extended {
		a, err := ref.Run(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := alt.Run(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a.Hash == b.Hash {
			t.Errorf("%v: identical across kernels — extension vector inert", id)
		}
	}
}

func TestExtendedVectorsDeterministicAndFickle(t *testing.T) {
	for _, id := range Extended {
		a, err := defaultRunner().Run(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := defaultRunner().Run(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a.Hash != b.Hash {
			t.Errorf("%v: nondeterministic at fixed offset", id)
		}
		c, err := defaultRunner().Run(id, 4)
		if err != nil {
			t.Fatal(err)
		}
		if c.Hash == a.Hash {
			t.Errorf("%v: insensitive to capture offset", id)
		}
	}
	if _, err := defaultRunner().Run(BiquadSweep, -1); err == nil {
		t.Error("negative offset accepted")
	}
}

func BenchmarkExtendedVectors(b *testing.B) {
	r := defaultRunner()
	for _, id := range Extended {
		b.Run(id.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(id, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
