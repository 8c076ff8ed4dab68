package study

import (
	"reflect"
	"testing"
)

func TestLongitudinalValidation(t *testing.T) {
	if _, err := Longitudinal(LongitudinalConfig{Users: 0, Epochs: 5}); err == nil {
		t.Error("zero users accepted")
	}
	if _, err := Longitudinal(LongitudinalConfig{Users: 5, Epochs: 1}); err == nil {
		t.Error("single epoch accepted")
	}
}

// TestLongitudinalStableWithoutUpgrades: with no browser churn the tracker
// re-identifies essentially everyone at every epoch.
func TestLongitudinalStableWithoutUpgrades(t *testing.T) {
	res, err := Longitudinal(LongitudinalConfig{
		Seed: 5, Users: 60, Epochs: 5, UpgradeProb: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("no-churn: %s", res)
	if res.Upgrades != 0 || res.FingerprintShifts != 0 {
		t.Errorf("unexpected upgrades: %+v", res)
	}
	if res.MeanAccuracy < 0.98 {
		t.Errorf("mean accuracy %.4f without churn, want ≥ 0.98", res.MeanAccuracy)
	}
	if len(res.EpochAccuracy) != 4 {
		t.Errorf("epoch accuracies = %v", res.EpochAccuracy)
	}
}

// TestLongitudinalUpgradesShiftFingerprints: with heavy browser churn some
// upgrades cross engine-revision boundaries and change the audio stack; the
// tracker's accuracy dips but stays majority-correct (most upgrades don't
// shift the stack — FP-STALKER's observation that fingerprints evolve
// slowly).
func TestLongitudinalUpgradesShiftFingerprints(t *testing.T) {
	res, err := Longitudinal(LongitudinalConfig{
		Seed: 6, Users: 80, Epochs: 6, UpgradeProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("churn: %s (per-epoch %v)", res, res.EpochAccuracy)
	if res.Upgrades == 0 {
		t.Fatal("no upgrades happened at p=0.5")
	}
	if res.FingerprintShifts == 0 {
		t.Error("no upgrade ever shifted a fingerprint — version axes inert")
	}
	if res.FingerprintShifts >= res.Upgrades {
		t.Error("every upgrade shifted the fingerprint — engine revisions too fine-grained")
	}
	if res.MeanAccuracy < 0.60 {
		t.Errorf("mean accuracy %.4f under churn, want ≥ 0.60", res.MeanAccuracy)
	}
	if res.MeanAccuracy >= 1.0 {
		t.Error("accuracy unaffected by fingerprint shifts — simulation inert")
	}
}

// TestLongitudinalPinned pins the exact churn result (seed 6, 80 users,
// 6 epochs, p=0.5), so a change to the collation graph underneath cannot
// move it unnoticed.
func TestLongitudinalPinned(t *testing.T) {
	res, err := Longitudinal(LongitudinalConfig{
		Seed: 6, Users: 80, Epochs: 6, UpgradeProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := LongitudinalResult{
		Users: 80, Epochs: 6, Upgrades: 193, FingerprintShifts: 9,
		EpochAccuracy: []float64{0.975, 1, 0.9875, 0.9875, 1},
		MeanAccuracy:  0.99,
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("Longitudinal = %+v, want %+v", res, want)
	}
}

func BenchmarkLongitudinal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Longitudinal(LongitudinalConfig{
			Seed: int64(i), Users: 40, Epochs: 4, UpgradeProb: 0.3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
