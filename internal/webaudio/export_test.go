package webaudio

import "fmt"

// Test-only accessors: the tests drive and observe node behavior through
// these, and no program needs them.

// Stop schedules the end of sound production at time t (seconds).
func (o *OscillatorNode) Stop(t float64) { o.stopTime = t }

// Reduction returns the current gain reduction in dB (≤ 0), mirroring the
// read-only attribute of the real node. Quanta rendered under
// Context.RenderUnobserved on the block engine do not update it: it keeps
// the value of the last quantum rendered in full.
func (d *DynamicsCompressorNode) Reduction() float64 { return d.reduction }

// Events returns how many audioprocess events have fired.
func (s *ScriptProcessorNode) Events() int { return s.events }

// RenderFrames renders at least totalFrames frames (rounded up to whole
// quanta) while recording the destination, and returns exactly totalFrames
// recorded samples.
func (c *Context) RenderFrames(totalFrames int) ([]float32, error) {
	if totalFrames <= 0 {
		return nil, fmt.Errorf("webaudio: RenderFrames(%d): length must be positive", totalFrames)
	}
	c.dest.record = true
	if err := c.RenderQuanta(quantaFor(totalFrames)); err != nil {
		return nil, err
	}
	return c.dest.readRecorded(totalFrames), nil
}
