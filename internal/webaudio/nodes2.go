package webaudio

import "fmt"

// WaveShaperNode applies a caller-supplied nonlinear transfer curve by
// linear interpolation over the input range [-1, 1], per the spec (the
// "none" oversampling mode). Distortion-based fingerprinting variants pass
// a tone through a shaping curve before analysis.
type WaveShaperNode struct {
	nodeBase
	curve []float32
}

// NewWaveShaper creates a shaper; without a curve it passes audio through.
func (c *Context) NewWaveShaper() *WaveShaperNode {
	w := &WaveShaperNode{nodeBase: nodeBase{ctx: c, label: "waveshaper"}}
	c.register(w)
	return w
}

// SetCurve installs the transfer curve (nil restores pass-through; a curve
// needs at least 2 points). The slice is copied.
func (w *WaveShaperNode) SetCurve(curve []float32) error {
	if curve == nil {
		w.curve = nil
		return nil
	}
	if len(curve) < 2 {
		return fmt.Errorf("webaudio: waveshaper curve needs ≥ 2 points, got %d", len(curve))
	}
	w.curve = append([]float32(nil), curve...)
	return nil
}

func (w *WaveShaperNode) process(frameTime int64) {
	tr := w.ctx.traits
	n := len(w.curve)
	for i := 0; i < RenderQuantum; i++ {
		x := w.sumInputs(i)
		if n == 0 {
			w.output[i] = tr.round32(x)
			continue
		}
		// Map x ∈ [-1, 1] to curve index space, clamping outside.
		v := (x + 1) / 2 * float64(n-1)
		switch {
		case v <= 0:
			w.output[i] = w.curve[0]
		case v >= float64(n-1):
			w.output[i] = w.curve[n-1]
		default:
			idx := int(v)
			frac := float32(v - float64(idx))
			s := w.curve[idx] + (w.curve[idx+1]-w.curve[idx])*frac
			w.output[i] = tr.round32(float64(s))
		}
	}
}

// processBlock is the waveshaper block kernel: the same curve lookup over
// the pre-mixed block.
func (w *WaveShaperNode) processBlock(_ int64, in *[RenderQuantum]float64) {
	flush := w.ctx.traits.FlushDenormals
	n := len(w.curve)
	if n == 0 {
		for i := 0; i < RenderQuantum; i++ {
			w.output[i] = flushRound(flush, in[i])
		}
		return
	}
	for i := 0; i < RenderQuantum; i++ {
		x := in[i]
		v := (x + 1) / 2 * float64(n-1)
		switch {
		case v <= 0:
			w.output[i] = w.curve[0]
		case v >= float64(n-1):
			w.output[i] = w.curve[n-1]
		default:
			idx := int(v)
			frac := float32(v - float64(idx))
			s := w.curve[idx] + (w.curve[idx+1]-w.curve[idx])*frac
			w.output[i] = flushRound(flush, float64(s))
		}
	}
}
