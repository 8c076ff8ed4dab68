package vectors

import (
	"fmt"
	"math"

	"repro/internal/webaudio"
)

// Extension vectors: the paper's §5 closes by listing "other potential
// factors" as future work, and its related work surveys alternative audio
// schematics. These two vectors probe engine stages the original seven do
// not touch — the BiquadFilter's IIR coefficient path and the WaveShaper's
// interpolation path — wired in the same Fig. 6 style (signal → shaping →
// analyser/compressor tail).
const (
	// BiquadSweep drives a sawtooth through a resonant lowpass whose cutoff
	// ramps across the spectrum, then fingerprints the hybrid tail.
	BiquadSweep ID = 100 + iota
	// Shaper drives the classic 10 kHz triangle through a nonlinear
	// transfer curve before the hybrid tail.
	Shaper
)

// Extended lists the extension vectors (not part of the paper's seven).
var Extended = []ID{BiquadSweep, Shaper}

func extendedString(id ID) (string, bool) {
	switch id {
	case BiquadSweep:
		return "Biquad Sweep", true
	case Shaper:
		return "Shaper", true
	}
	return "", false
}

// RunExtended executes an extension vector at one capture offset (same
// contract as Run).
func (r *Runner) RunExtended(id ID, captureOffset int) (Fingerprint, error) {
	if _, ok := extendedString(id); !ok {
		return Fingerprint{}, fmt.Errorf("vectors: %v is not an extension vector", id)
	}
	return r.Run(id, captureOffset)
}

// buildExtendedSignal wires the signal stage of one extension vector.
func buildExtendedSignal(rt *webaudio.RealtimeSim, id ID) (webaudio.Node, error) {
	var signal webaudio.Node

	switch id {
	case BiquadSweep:
		osc := rt.NewOscillator(webaudio.Sawtooth, 440)
		osc.Start(0)
		f := rt.NewBiquadFilter(webaudio.Lowpass)
		f.Q.SetValue(8)
		f.Frequency.SetValueAtTime(200, 0)
		f.Frequency.ExponentialRampToValueAtTime(12000, 0.25)
		webaudio.Connect(osc, f)
		signal = f

	case Shaper:
		osc := rt.NewOscillator(webaudio.Triangle, toneHz)
		osc.Start(0)
		ws := rt.NewWaveShaper()
		// A tanh-style soft clipper sampled at 257 points (a curve shape
		// distortion demos ubiquitously use).
		curve := make([]float32, 257)
		for i := range curve {
			x := float64(i)/128 - 1
			curve[i] = float32(math.Tanh(3 * x))
		}
		if err := ws.SetCurve(curve); err != nil {
			return nil, err
		}
		webaudio.Connect(osc, ws)
		signal = ws

	default:
		return nil, fmt.Errorf("vectors: %d is not an extension vector", int(id))
	}

	return signal, nil
}
