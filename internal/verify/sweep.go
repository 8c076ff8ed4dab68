package verify

import (
	"fmt"

	"repro/internal/study"
)

// Offline threshold calibration: sweep the accept threshold over genuine
// trials (a user's own later-epoch samples against their enrolled history)
// and impostor trials (another user's samples claimed as the target) drawn
// from the evolved population, and report FAR/FRR per threshold plus the
// equal-error-rate operating point. FAR at a threshold is the fraction of
// impostor trials accepted; FRR is the fraction of genuine trials rejected.

// Trial is one scored verification attempt with ground truth.
type Trial struct {
	// Score is the engine's decision score for the attempt.
	Score float64 `json:"score"`
	// Genuine is true when the claimed user really produced the samples.
	Genuine bool `json:"genuine"`
}

// SweepPoint is one row of the threshold sweep.
type SweepPoint struct {
	Threshold float64 `json:"threshold"`
	// FAR is the false-accept rate: impostor trials with score ≥ threshold.
	FAR float64 `json:"far"`
	// FRR is the false-reject rate: genuine trials with score < threshold.
	FRR float64 `json:"frr"`
}

// Calibration is the sweep result: the operating curve and its
// equal-error-rate point. It is what `fpstudy -verify-sweep` writes and
// `fpserver -verify-calibration` loads.
type Calibration struct {
	Points []SweepPoint `json:"points"`
	// EER is the equal error rate: (FAR+FRR)/2 at the threshold where the
	// two curves cross.
	EER float64 `json:"eer"`
	// EERThreshold is that crossing threshold — the default decision
	// threshold a calibrated engine runs with.
	EERThreshold float64 `json:"eer_threshold"`
	// GenuineTrials / ImpostorTrials count the evidence behind the curve.
	GenuineTrials  int `json:"genuine_trials"`
	ImpostorTrials int `json:"impostor_trials"`
}

// calibrationSteps is the threshold grid resolution.
const calibrationSteps = 100

// Calibrate sweeps calibrationSteps+1 thresholds over [0,1] and locates the
// EER.
func Calibrate(trials []Trial) Calibration {
	var genuine, impostor int
	for _, t := range trials {
		if t.Genuine {
			genuine++
		} else {
			impostor++
		}
	}
	cal := Calibration{GenuineTrials: genuine, ImpostorTrials: impostor}
	bestGap := 2.0
	for i := 0; i <= calibrationSteps; i++ {
		th := float64(i) / calibrationSteps
		var fa, fr int
		for _, t := range trials {
			accept := t.Score >= th
			if t.Genuine && !accept {
				fr++
			}
			if !t.Genuine && accept {
				fa++
			}
		}
		p := SweepPoint{Threshold: th}
		if impostor > 0 {
			p.FAR = float64(fa) / float64(impostor)
		}
		if genuine > 0 {
			p.FRR = float64(fr) / float64(genuine)
		}
		cal.Points = append(cal.Points, p)
		if gap := abs(p.FAR - p.FRR); gap < bestGap {
			bestGap = gap
			cal.EER = (p.FAR + p.FRR) / 2
			cal.EERThreshold = th
		}
	}
	return cal
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// SweepConfig parameterizes an offline sweep over an evolved population.
type SweepConfig struct {
	// Evolved is the dataset build (population, epochs, churn, vectors).
	Evolved study.EvolvedConfig
	// EnrollEpochs is how many leading epochs form the stored history;
	// the remaining epochs supply trials (default Epochs/2, minimum 1).
	EnrollEpochs int
}

// impostorsPerUser is how many impostor trials each user is the victim of.
const impostorsPerUser = 2

// SweepResult carries the calibration plus the population it came from.
type SweepResult struct {
	Calibration Calibration `json:"calibration"`
	// Users / Epochs / EnrollEpochs echo the configuration.
	Users        int `json:"users"`
	Epochs       int `json:"epochs"`
	EnrollEpochs int `json:"enroll_epochs"`
	// Upgrades / OSUpgrades / FingerprintShifts are the evolved
	// population's churn counts.
	Upgrades          int `json:"upgrades"`
	OSUpgrades        int `json:"os_upgrades"`
	FingerprintShifts int `json:"fingerprint_shifts"`
}

// Sweep builds the evolved population, enrolls the leading epochs into a
// fresh engine, scores genuine and impostor trials from the held-out
// epochs, and calibrates the threshold. The whole pipeline is
// deterministic in the evolved config's seed.
func Sweep(cfg SweepConfig) (SweepResult, error) {
	ev, err := study.BuildEvolved(cfg.Evolved)
	if err != nil {
		return SweepResult{}, err
	}
	enroll := cfg.EnrollEpochs
	if enroll <= 0 {
		enroll = ev.Epochs / 2
	}
	if enroll < 1 {
		enroll = 1
	}
	if enroll >= ev.Epochs {
		return SweepResult{}, fmt.Errorf("verify: enroll epochs %d leave no held-out epochs of %d", enroll, ev.Epochs)
	}

	eng := New(Config{})
	for _, v := range ev.Vectors {
		obs := ev.Obs[v]
		for e := 0; e < enroll; e++ {
			for u, user := range ev.Users {
				eng.EnrollHashes(user, v, obs[e][u]...)
			}
		}
	}

	// samplesAt collects user u's full multi-vector sample set at epoch e.
	samplesAt := func(u, e int) []Sample {
		var out []Sample
		for _, v := range ev.Vectors {
			for _, h := range ev.Obs[v][e][u] {
				out = append(out, Sample{Vector: v, Hash: h})
			}
		}
		return out
	}

	var trials []Trial
	for u, user := range ev.Users {
		for e := enroll; e < ev.Epochs; e++ {
			score, _, known := eng.Score(user, samplesAt(u, e))
			if !known {
				return SweepResult{}, fmt.Errorf("verify: enrolled user %s unknown to engine", user)
			}
			trials = append(trials, Trial{Score: score, Genuine: true})
		}
		// Impostors present their own first held-out epoch under u's name.
		// The deterministic stride spreads victims across the population.
		for k := 1; k <= impostorsPerUser; k++ {
			imp := (u + k*securityStride) % len(ev.Users)
			if imp == u {
				imp = (imp + 1) % len(ev.Users)
			}
			score, _, _ := eng.Score(user, samplesAt(imp, enroll))
			trials = append(trials, Trial{Score: score, Genuine: false})
		}
	}

	return SweepResult{
		Calibration:       Calibrate(trials),
		Users:             len(ev.Users),
		Epochs:            ev.Epochs,
		EnrollEpochs:      enroll,
		Upgrades:          ev.Upgrades,
		OSUpgrades:        ev.OSUpgrades,
		FingerprintShifts: ev.FingerprintShifts,
	}, nil
}

// securityStride spreads impostor pairings across the population; prime so
// repeated k values cycle through distinct victims.
const securityStride = 17
