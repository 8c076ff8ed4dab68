package population

import (
	"math/rand"

	"repro/internal/platform"
)

// Time evolution of a sampled population: between observation epochs,
// devices occasionally upgrade their browser's major version or move to a
// new OS release. Either event can shift the DSP-kernel parameter set the
// audio stack exposes (FFT-library revision cuts, mixing behaviour — see
// platform.Device.AudioTraits), which is exactly the churn FP-STALKER-style
// longitudinal tracking and the verification workload have to ride through.

// ChurnModel parameterizes per-device per-epoch upgrade events. The zero
// value applies no churn.
type ChurnModel struct {
	// BrowserUpgradeProb is the per-epoch probability of a browser major
	// upgrade (Major++, which can cross an FFT-revision cut).
	BrowserUpgradeProb float64
	// OSUpgradeProb is the per-epoch probability of an OS release change
	// (re-sampled OS version string; affects the UA surface and, in the
	// 2016 era, OS-conditioned kernels).
	OSUpgradeProb float64
}

// DefaultChurn returns rates calibrated to the ~6-week release trains of
// evergreen browsers against weekly observation epochs: roughly one browser
// major upgrade every ten epochs and an OS release a third as often.
func DefaultChurn() ChurnModel {
	return ChurnModel{BrowserUpgradeProb: 0.10, OSUpgradeProb: 0.03}
}

// ChurnEvent records what happened to one device in one epoch step.
type ChurnEvent struct {
	// BrowserUpgrade: the browser's major version advanced this epoch.
	BrowserUpgrade bool
	// OSUpgrade: the device moved to a different OS release this epoch.
	OSUpgrade bool
	// StackShift: an upgrade changed the device's audio stack key, so its
	// elementary fingerprints shift from this epoch on.
	StackShift bool
}

// Step advances d by one epoch under the model, mutating it in place, and
// reports what happened. It always consumes exactly two rng draws (plus the
// draws of an OS re-sample when one fires), so a device's draw sequence is
// independent of which branches were taken before it.
func (m ChurnModel) Step(rng *rand.Rand, d *platform.Device) ChurnEvent {
	var ev ChurnEvent
	before := d.AudioStackKey()
	browserDraw := rng.Float64()
	osDraw := rng.Float64()
	if browserDraw < m.BrowserUpgradeProb {
		d.Major++
		ev.BrowserUpgrade = true
	}
	if osDraw < m.OSUpgradeProb {
		was := d.OSVersion
		d.OSVersion = platform.SampleOSVersion(rng, d.OS)
		ev.OSUpgrade = d.OSVersion != was
	}
	if (ev.BrowserUpgrade || ev.OSUpgrade) && d.AudioStackKey() != before {
		ev.StackShift = true
	}
	return ev
}
