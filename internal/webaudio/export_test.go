package webaudio

import "fmt"

// Test-only accessors: the tests drive and observe node behavior through
// these, and no program needs them.

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
