package study

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/platform"
	"repro/internal/population"
	"repro/internal/vectors"
	"repro/internal/webaudio"
)

// TestBuildEvolvedDeterminism: same seed ⇒ byte-identical dataset,
// regardless of worker parallelism; a different seed diverges.
func TestBuildEvolvedDeterminism(t *testing.T) {
	cfg := EvolvedConfig{
		Seed: 42, Users: 24, Epochs: 4, SamplesPerEpoch: 2,
		Vectors: []vectors.ID{vectors.DC, vectors.FFT, vectors.Hybrid},
		Churn:   population.DefaultChurn(),
	}
	a, err := BuildEvolved(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildEvolved(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two builds of the same config differ structurally")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("two builds of the same config differ byte-wise")
	}

	par := cfg
	par.Parallelism = 8
	c, err := BuildEvolved(par)
	if err != nil {
		t.Fatal(err)
	}
	if c.Fingerprint() != a.Fingerprint() {
		t.Error("Parallelism=8 build differs from the serial build")
	}

	other := cfg
	other.Seed = 43
	d, err := BuildEvolved(other)
	if err != nil {
		t.Fatal(err)
	}
	if d.Fingerprint() == a.Fingerprint() {
		t.Error("different seeds produced identical datasets")
	}
}

// TestBuildEvolvedPinned pins one evolved dataset byte for byte, at two
// worker counts: 200 users, six epochs of two samples of all seven vectors
// under the default churn (nine stack shifts).
func TestBuildEvolvedPinned(t *testing.T) {
	const want = "00946a166bf5e5a3f261620b3b9fa08ac9791f39e9318c1240ba64e083397cd0"
	for _, par := range []int{1, 8} {
		ev, err := BuildEvolved(EvolvedConfig{
			Seed: 42, Users: 200, Epochs: 6, SamplesPerEpoch: 2,
			Vectors:     vectors.All,
			Churn:       population.DefaultChurn(),
			Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.Fingerprint(); got != want {
			t.Errorf("parallelism %d: fingerprint %s, want %s", par, got, want)
		}
		if ev.FingerprintShifts != 9 {
			t.Errorf("parallelism %d: %d stack shifts, want 9", par, ev.FingerprintShifts)
		}
	}
}

// TestBuildEvolvedRenderBill pins an evolved build's render bill to its
// draws: one audio context per distinct (stack, vector) over every user
// and epoch, and per pass the quanta TestRenderPassCounts derives from the
// largest offset drawn, at any parallelism. DC, FFT and Hybrid cover the
// three ways a pass's quanta are counted. The expected counts come from
// redrawing churn and offsets here, independently of the build's plan.
func TestBuildEvolvedRenderBill(t *testing.T) {
	cfg := EvolvedConfig{
		Seed: 42, Users: 60, Epochs: 6, SamplesPerEpoch: 2,
		Vectors: []vectors.ID{vectors.DC, vectors.FFT, vectors.Hybrid},
		Churn:   population.DefaultChurn(),
	}
	type pass struct {
		stack string
		v     vectors.ID
	}
	maxOffset := map[pass]int{}
	jitter := platform.DefaultJitter()
	seeds := rand.New(rand.NewSource(cfg.Seed ^ 0x45564f4c56))
	shifted := false
	for _, d := range population.Sample(population.Config{Seed: cfg.Seed, N: cfg.Users}) {
		rng := rand.New(rand.NewSource(seeds.Int63()))
		for e := 0; e < cfg.Epochs; e++ {
			if e > 0 && cfg.Churn.Step(rng, d).StackShift {
				shifted = true
			}
			for _, v := range cfg.Vectors {
				for s := 0; s < cfg.SamplesPerEpoch; s++ {
					off := jitter.Offset(rng, d.Load, v)
					if off >= 32 {
						t.Fatalf("jitter drew offset %d; the expected bill assumes offsets below 32", off)
					}
					k := pass{d.AudioStackKey(), v}
					if m, ok := maxOffset[k]; !ok || off > m {
						maxOffset[k] = off
					}
				}
			}
		}
	}
	if !shifted {
		t.Fatal("no stack shift drawn; the bill would not cover a stack reached by churn")
	}
	wantContexts, wantQuanta, wantHinted := int64(len(maxOffset)), int64(0), int64(0)
	for k, m := range maxOffset {
		switch k.v {
		case vectors.DC:
			wantQuanta += 40
			wantHinted += 35
		case vectors.FFT:
			wantQuanta += 96 + int64(m)
		default:
			wantQuanta += 96 + int64(m)
			wantHinted += 96 + int64(m) - 32
		}
	}

	for _, par := range []int{1, 8} {
		c := cfg
		c.Parallelism = par
		before := webaudio.Stats()
		if _, err := BuildEvolved(c); err != nil {
			t.Fatal(err)
		}
		after := webaudio.Stats()
		if got := after.Contexts - before.Contexts; got != wantContexts {
			t.Errorf("parallelism %d: %d contexts, want %d (one per stack × vector)", par, got, wantContexts)
		}
		if got := after.Quanta - before.Quanta; got != wantQuanta {
			t.Errorf("parallelism %d: %d quanta, want %d", par, got, wantQuanta)
		}
		if got := after.UnobservedQuanta - before.UnobservedQuanta; got != wantHinted {
			t.Errorf("parallelism %d: %d hinted quanta, want %d", par, got, wantHinted)
		}
	}
}

// TestBuildEvolvedChurnCalibration: over a large population × many epochs,
// the observed per-step upgrade frequencies must land within tolerance of
// the configured churn rates, and stack shifts must show up as changed
// observation hashes for the shifted users.
func TestBuildEvolvedChurnCalibration(t *testing.T) {
	churn := population.ChurnModel{BrowserUpgradeProb: 0.15, OSUpgradeProb: 0.04}
	cfg := EvolvedConfig{
		Seed: 7, Users: 600, Epochs: 9, SamplesPerEpoch: 1,
		Churn:       churn,
		Parallelism: 4,
	}
	ev, err := BuildEvolved(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := float64(cfg.Users * (cfg.Epochs - 1)) // epoch 0 has no churn
	browserRate := float64(ev.Upgrades) / steps
	if math.Abs(browserRate-churn.BrowserUpgradeProb) > 0.02 {
		t.Errorf("browser upgrade rate = %.4f, configured %.2f", browserRate, churn.BrowserUpgradeProb)
	}
	osRate := float64(ev.OSUpgrades) / steps
	if osRate > churn.OSUpgradeProb+0.015 || osRate < churn.OSUpgradeProb/3 {
		t.Errorf("os upgrade rate = %.4f, configured %.2f", osRate, churn.OSUpgradeProb)
	}
	if ev.FingerprintShifts == 0 {
		t.Fatal("no fingerprint shifts; churn never crossed a DSP revision cut")
	}
	if ev.FingerprintShifts >= ev.Upgrades+ev.OSUpgrades {
		t.Errorf("shifts (%d) >= upgrades (%d); most upgrades must keep the stack",
			ev.FingerprintShifts, ev.Upgrades+ev.OSUpgrades)
	}
	// Every epoch-0 event must be zero (enrollment), and a shifted user's
	// hashes must actually change at the shift epoch.
	for u, evt := range ev.Events[0] {
		if evt != (population.ChurnEvent{}) {
			t.Fatalf("user %d has a churn event at enrollment epoch: %+v", u, evt)
		}
	}
	obs := ev.Obs[vectors.Hybrid]
	checked := 0
	for e := 1; e < cfg.Epochs && checked < 10; e++ {
		for u, evt := range ev.Events[e] {
			if evt.StackShift && obs[e][u][0] == obs[e-1][u][0] {
				t.Errorf("user %d shifted stack at epoch %d but its hash did not change", u, e)
			}
			if evt.StackShift {
				checked++
			}
		}
	}
	if checked == 0 {
		t.Error("found no shifted user to check hash movement on")
	}
}

// TestBuildEvolvedValidation: bad configs are rejected.
func TestBuildEvolvedValidation(t *testing.T) {
	if _, err := BuildEvolved(EvolvedConfig{}); err == nil {
		t.Error("zero config accepted")
	}
	if _, err := BuildEvolved(EvolvedConfig{
		Users: 5,
	}); err == nil {
		t.Error("zero epochs accepted")
	}
}
