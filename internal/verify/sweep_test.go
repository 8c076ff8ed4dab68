package verify

import (
	"fmt"
	"testing"

	"repro/internal/population"
	"repro/internal/study"
	"repro/internal/vectors"
)

// TestSweepSmall: the sweep pipeline end to end at toy scale — the curve
// must be monotone in the right directions and the EER must beat chance.
func TestSweepSmall(t *testing.T) {
	res, err := Sweep(SweepConfig{
		Evolved: study.EvolvedConfig{
			Seed: 11, Users: 120, Epochs: 4, SamplesPerEpoch: 2,
			Vectors:     []vectors.ID{vectors.DC, vectors.FFT, vectors.Hybrid},
			Churn:       population.DefaultChurn(),
			Parallelism: 4,
		},
		EnrollEpochs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cal := res.Calibration
	if cal.GenuineTrials != 120*2 || cal.ImpostorTrials != 120*2 {
		t.Fatalf("trial counts = %d/%d", cal.GenuineTrials, cal.ImpostorTrials)
	}
	// FAR falls and FRR rises as the threshold tightens.
	first, last := cal.Points[0], cal.Points[len(cal.Points)-1]
	if first.FAR != 1 || first.FRR != 0 {
		t.Errorf("threshold 0: FAR=%v FRR=%v, want 1/0", first.FAR, first.FRR)
	}
	if last.FAR >= first.FAR {
		t.Errorf("FAR did not fall across the sweep: %v → %v", first.FAR, last.FAR)
	}
	for i := 1; i < len(cal.Points); i++ {
		if cal.Points[i].FAR > cal.Points[i-1].FAR+1e-12 {
			t.Fatalf("FAR not non-increasing at %v", cal.Points[i].Threshold)
		}
		if cal.Points[i].FRR+1e-12 < cal.Points[i-1].FRR {
			t.Fatalf("FRR not non-decreasing at %v", cal.Points[i].Threshold)
		}
	}
	if cal.EER >= 0.5 {
		t.Errorf("EER = %v, no better than chance", cal.EER)
	}
	t.Logf("small sweep: EER=%.4f at threshold %.2f (upgrades=%d shifts=%d)",
		cal.EER, cal.EERThreshold, res.Upgrades, res.FingerprintShifts)
}

// TestSweepRejectsBadSplit: enrollment must leave held-out epochs.
func TestSweepRejectsBadSplit(t *testing.T) {
	_, err := Sweep(SweepConfig{
		Evolved: study.EvolvedConfig{
			Seed: 1, Users: 4, Epochs: 2,
		},
		EnrollEpochs: 2,
	})
	if err == nil {
		t.Fatal("enroll == epochs accepted")
	}
}

// TestGoldenEER pins the verification quality over the evolved main-study
// population: 2093 users (§2.3 mix), six weekly epochs under the default
// churn model, the first three epochs enrolled, all seven vectors
// submitted. The EER is the repo's headline verification number; any
// movement in the printed pair means the decision model, the churn model,
// or the DSP kernels changed behavior.
func TestGoldenEER(t *testing.T) {
	if testing.Short() {
		t.Skip("full-population sweep in -short mode")
	}
	res, err := Sweep(SweepConfig{
		Evolved: study.EvolvedConfig{
			Seed: 20211120, Users: 2093, Epochs: 6, SamplesPerEpoch: 2,
			Vectors:     vectors.All,
			Churn:       population.DefaultChurn(),
			Parallelism: 4,
		},
		EnrollEpochs: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cal := res.Calibration
	t.Logf("golden sweep: EER=%.4f at threshold %.2f genuine=%d impostor=%d upgrades=%d os=%d shifts=%d",
		cal.EER, cal.EERThreshold, cal.GenuineTrials, cal.ImpostorTrials,
		res.Upgrades, res.OSUpgrades, res.FingerprintShifts)

	// The pair fpstudy -verify-sweep prints, exactly as printed.
	if got := fmt.Sprintf("EER %.4f at threshold %.2f", cal.EER, cal.EERThreshold); got != "EER 0.1356 at threshold 0.79" {
		t.Errorf("%s, want EER 0.1356 at threshold 0.79", got)
	}
	if fmt.Sprintf("%.2f", DefaultThreshold) != fmt.Sprintf("%.2f", cal.EERThreshold) {
		t.Errorf("DefaultThreshold %v is not the EER threshold %.2f", DefaultThreshold, cal.EERThreshold)
	}
	if cal.GenuineTrials != 2093*3 || cal.ImpostorTrials != 2093*2 {
		t.Errorf("trial counts = %d/%d, want %d/%d", cal.GenuineTrials, cal.ImpostorTrials, 2093*3, 2093*2)
	}
	if res.FingerprintShifts == 0 || res.Upgrades == 0 {
		t.Errorf("evolved population shows no churn: upgrades=%d shifts=%d", res.Upgrades, res.FingerprintShifts)
	}
}
