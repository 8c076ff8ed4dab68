package webaudio

// GainNode scales its input by the (audio-rate modulable) Gain parameter.
// Fingerprinting scripts use it both as a mute (gain 0 before the speakers,
// so victims hear nothing) and — with a modulator oscillator connected to
// Gain — as the multiplier stage of the AM vector.
type GainNode struct {
	nodeBase
	// Gain is the multiplicative factor applied to the input.
	Gain *AudioParam
}

// NewGain creates a gain node with the given initial gain.
func (c *Context) NewGain(gain float64) *GainNode {
	g := &GainNode{nodeBase: nodeBase{ctx: c, label: "gain"}}
	g.Gain = newParam(c, gain, 0, 0) // unclamped, per spec
	c.register(g)
	return g
}

func (g *GainNode) params() []*AudioParam { return []*AudioParam{g.Gain} }

func (g *GainNode) process() {
	tr := g.ctx.traits
	for i := 0; i < RenderQuantum; i++ {
		g.output[i] = tr.round32(g.sumInputs(i) * g.Gain.sampleAt(i))
	}
}

// processBlock is the gain block kernel: a constant-folded multiply when
// the param is k-rate (every fingerprinting vector's mute and depth gains),
// or a block multiply against the param's sampled block (the AM vector's
// modulated carrier gain).
func (g *GainNode) processBlock(in *[RenderQuantum]float64) {
	flush := g.ctx.traits.FlushDenormals
	if g.Gain.isKRate() {
		gv := g.Gain.constValue()
		for i := 0; i < RenderQuantum; i++ {
			g.output[i] = flushRound(flush, in[i]*gv)
		}
		return
	}
	p := &g.ctx.scratch.param
	g.Gain.blockSample(p)
	for i := 0; i < RenderQuantum; i++ {
		g.output[i] = flushRound(flush, in[i]*p[i])
	}
}

// ChannelMergerNode combines several mono inputs. The engine is mono, so
// merging is an input sum followed by the usual down-mix normalization the
// destination would apply; what matters for fingerprinting is that the sum
// happens at the trait-selected mixing precision. The Merged Signals vector
// (paper Fig. 7) runs its four oscillators through one of these.
type ChannelMergerNode struct {
	nodeBase
}

// NewChannelMerger creates a merger node. The channel count of the real API
// is implicit here: every connected input is one channel.
func (c *Context) NewChannelMerger() *ChannelMergerNode {
	m := &ChannelMergerNode{nodeBase: nodeBase{ctx: c, label: "merger"}}
	c.register(m)
	return m
}

func (m *ChannelMergerNode) process() {
	tr := m.ctx.traits
	for i := 0; i < RenderQuantum; i++ {
		m.output[i] = tr.round32(m.sumInputs(i))
	}
}

// processBlock rounds the pre-mixed block — the merger's whole job is the
// trait-precision sum the program driver already performed.
func (m *ChannelMergerNode) processBlock(in *[RenderQuantum]float64) {
	flush := m.ctx.traits.FlushDenormals
	for i := 0; i < RenderQuantum; i++ {
		m.output[i] = flushRound(flush, in[i])
	}
}
