package defense

import (
	"testing"

	"repro/internal/vectors"
	"repro/internal/webaudio"
)

func TestProtectOffIsIdentity(t *testing.T) {
	tr := Protect(webaudio.DefaultTraits(), Off, 1)
	if tr.Farble != nil {
		t.Error("Off mode left farbling enabled")
	}
	a, err := vectors.NewRunner(tr, 0).Run(vectors.DC, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := vectors.NewRunner(webaudio.DefaultTraits(), 0).Run(vectors.DC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash != b.Hash {
		t.Error("Off-mode fingerprint differs from undefended")
	}
}

// TestSessionKeyedProperties: within-session stability, cross-session
// divergence, and divergence from the undefended fingerprint — for every
// vector, including the otherwise perfectly stable DC.
func TestSessionKeyedProperties(t *testing.T) {
	base := webaudio.DefaultTraits()
	for _, v := range vectors.All {
		plain, err := vectors.NewRunner(base, 0).Run(v, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr1 := Protect(base, SessionKeyed, 111)
		tr1b := Protect(base, SessionKeyed, 111)
		tr2 := Protect(base, SessionKeyed, 222)

		a, err := vectors.NewRunner(tr1, 0).Run(v, 0)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := vectors.NewRunner(tr1b, 0).Run(v, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := vectors.NewRunner(tr2, 0).Run(v, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a.Hash != a2.Hash {
			t.Errorf("%v: same session seed produced different fingerprints", v)
		}
		if a.Hash == b.Hash {
			t.Errorf("%v: different sessions share a fingerprint — defense inert", v)
		}
		if a.Hash == plain.Hash {
			t.Errorf("%v: defended fingerprint equals undefended", v)
		}
	}
}

// TestFarbleAmplitudeInaudible: the defense perturbs the rendered buffer by
// at most Epsilon relatively — no audible artifacts.
func TestFarbleAmplitudeInaudible(t *testing.T) {
	render := func(tr webaudio.Traits) []float32 {
		oc := webaudio.NewOfflineContext(4096, 44100, tr)
		osc := oc.NewOscillator(webaudio.Sine, 440)
		webaudio.Connect(osc, oc.Destination())
		buf, err := oc.StartRendering()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	plain := render(webaudio.DefaultTraits())
	defended := render(Protect(webaudio.DefaultTraits(), SessionKeyed, 5))
	for i := range plain {
		diff := float64(defended[i] - plain[i])
		if diff < 0 {
			diff = -diff
		}
		limit := Epsilon*abs64(plain[i]) + 1e-9
		if diff > limit*1.01 {
			t.Fatalf("sample %d perturbed by %g, limit %g", i, diff, limit)
		}
	}
}

func abs64(v float32) float64 {
	if v < 0 {
		return float64(-v)
	}
	return float64(v)
}

// TestEvaluateDefenseEffect is the headline: without the defense almost all
// users are linkable across sessions (and fingerprints collide into few
// classes); with it, nobody links across sessions, everyone is unique
// within one, and same-session reads stay consistent.
func TestEvaluateDefenseEffect(t *testing.T) {
	const n = 60
	undefended, err := Evaluate(Off, vectors.Hybrid, n, 31)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("undefended: %s", undefended)
	if undefended.CrossSessionMatched < n*9/10 {
		t.Errorf("undefended cross-session matches = %d/%d, want ≥ 90%%",
			undefended.CrossSessionMatched, n)
	}
	if undefended.DistinctFirstSession >= n {
		t.Error("undefended fingerprints all unique — collisions expected")
	}

	defended, err := Evaluate(SessionKeyed, vectors.Hybrid, n, 31)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("defended:   %s", defended)
	if defended.WithinSessionStable != n {
		t.Errorf("defense broke within-session stability: %d/%d", defended.WithinSessionStable, n)
	}
	if defended.CrossSessionMatched != 0 {
		t.Errorf("defense leaked %d cross-session matches", defended.CrossSessionMatched)
	}
	if defended.DistinctFirstSession != n {
		t.Errorf("defended fingerprints not all distinct: %d/%d", defended.DistinctFirstSession, n)
	}
}

// TestEvaluatePinned pins Evaluate's exact results for every mode (Hybrid,
// 80 users, seed 99), so a change to the collation graph underneath cannot
// move them unnoticed.
func TestEvaluatePinned(t *testing.T) {
	want := map[Mode]Evaluation{
		Off:          {Users: 80, WithinSessionStable: 80, CrossSessionMatched: 80, DistinctFirstSession: 23},
		SessionKeyed: {Users: 80, WithinSessionStable: 80, CrossSessionMatched: 0, DistinctFirstSession: 80},
	}
	for mode, w := range want {
		got, err := Evaluate(mode, vectors.Hybrid, 80, 99)
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Errorf("mode %d: %+v, want %+v", mode, got, w)
		}
	}
}

func BenchmarkDefendedFingerprint(b *testing.B) {
	tr := Protect(webaudio.DefaultTraits(), SessionKeyed, 9)
	r := vectors.NewRunner(tr, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(vectors.DC, 0); err != nil {
			b.Fatal(err)
		}
	}
}
