package study

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/population"
	"repro/internal/vectors"
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
