package webaudio

import "fmt"

// Context owns an audio graph and its rendering clock. It corresponds to
// BaseAudioContext: OfflineContext and RealtimeSim specialize how it is
// driven. Contexts are single-goroutine objects.
type Context struct {
	sampleRate float64
	traits     Traits
	nodes      []Node
	dest       *DestinationNode
	dirty      bool
	order      []Node
	frame      int64
	engine     Engine
	prog       renderProgram
	scratch    blockScratch
}

// NewContext creates a context with the given sample rate (Hz) and platform
// traits. A nil-kernel Traits is replaced by DefaultTraits.
func NewContext(sampleRate float64, traits Traits) *Context {
	if traits.Kernel == nil {
		traits = DefaultTraits()
	}
	c := &Context{sampleRate: sampleRate, traits: traits, engine: DefaultEngine()}
	c.dest = &DestinationNode{nodeBase: nodeBase{ctx: c, label: "destination"}}
	c.register(c.dest)
	statContexts.Inc()
	return c
}

// CurrentFrame returns the rendered time in frames.
func (c *Context) CurrentFrame() int64 { return c.frame }

// Destination returns the sink node all audible graphs terminate in.
func (c *Context) Destination() *DestinationNode { return c.dest }

func (c *Context) register(n Node) {
	c.nodes = append(c.nodes, n)
	c.dirty = true
}

// RenderQuanta advances the graph clock by n render quanta. When the graph
// changed it recompiles the topo order and (for the block engine) the render
// program first; the steady-state path after compilation allocates nothing.
func (c *Context) RenderQuanta(n int) error { return c.render(n, false) }

// RenderUnobserved advances the graph clock by n render quanta, on the
// caller's promise that nothing reads those quanta's outputs or anything
// built from them: a buffer that records them, or a downstream node's
// memory of them. Every other piece of node state advances exactly as
// under RenderQuanta, so every later output that does not depend on a
// hinted output renders as it would have. The block engine uses the
// promise to skip work only hinted outputs depend on: the compressor runs
// only its envelope detector and look-ahead delay line, neither of which
// reads its gain, and writes silence. The reference engine ignores the
// hint and renders in full, so it stays the oracle the hinted render is
// checked against.
func (c *Context) RenderUnobserved(n int) error { return c.render(n, true) }

// render is RenderQuanta and RenderUnobserved: unobserved selects the
// block engine's hinted kernels.
func (c *Context) render(n int, unobserved bool) error {
	if c.dirty {
		order, err := c.topoOrder()
		if err != nil {
			return err
		}
		c.order = order
		c.compileProgram()
		c.dirty = false
	}
	if c.engine == EngineReference {
		for q := 0; q < n; q++ {
			for _, node := range c.order {
				node.process()
			}
			c.frame += RenderQuantum
		}
		statReferenceQuanta.Add(int64(n))
	} else {
		for q := 0; q < n; q++ {
			c.prog.run(c, unobserved)
			c.frame += RenderQuantum
		}
		statBlockQuanta.Add(int64(n))
		if unobserved {
			statUnobservedQuanta.Add(int64(n))
		}
	}
	statQuanta.Add(int64(n))
	statNodes.Add(int64(n) * int64(len(c.order)))
	return nil
}

// quantaFor rounds a frame count up to whole render quanta.
func quantaFor(frames int) int { return (frames + RenderQuantum - 1) / RenderQuantum }

// DestinationNode is the graph sink. When recording, it appends each mixed
// quantum to an internal buffer (the OfflineAudioContext "rendered buffer").
type DestinationNode struct {
	nodeBase
	record   bool
	recorded []float32
}

func (d *DestinationNode) process() {
	tr := d.ctx.traits
	for i := 0; i < RenderQuantum; i++ {
		d.output[i] = tr.round32(d.sumInputs(i))
	}
	if d.record {
		d.recorded = append(d.recorded, d.output[:]...)
	}
}

// processBlock is the destination's mix/round block kernel.
func (d *DestinationNode) processBlock(in *[RenderQuantum]float64) {
	flush := d.ctx.traits.FlushDenormals
	for i := 0; i < RenderQuantum; i++ {
		d.output[i] = flushRound(flush, in[i])
	}
	if d.record {
		d.recorded = append(d.recorded, d.output[:]...)
	}
}

// readRecorded returns the first frames recorded samples as a script reads
// them. Farbling perturbs the script-readable copy (getChannelData), not
// the graph state, and keys its noise on each sample's index in the
// buffer.
func (d *DestinationNode) readRecorded(frames int) []float32 {
	out := d.recorded
	if len(out) > frames {
		out = out[:frames]
	}
	d.ctx.traits.Farble.farbleInPlace(out)
	return out
}

// OfflineContext mirrors OfflineAudioContext(1, length, sampleRate): a
// deterministic render of a fixed number of frames. The DC fingerprinting
// vector uses this — and its determinism is why DC fingerprints never vary
// across iterations (paper Table 1, first row).
type OfflineContext struct {
	*Context
	length int
}

// NewOfflineContext creates an offline context that renders length frames.
// Its destination records from frame 0, as the rendered buffer of an
// OfflineAudioContext does, whichever render call advances the clock.
func NewOfflineContext(length int, sampleRate float64, traits Traits) *OfflineContext {
	o := &OfflineContext{Context: NewContext(sampleRate, traits), length: length}
	o.dest.record = true
	if length > 0 {
		o.dest.recorded = make([]float32, 0, quantaFor(length)*RenderQuantum)
	}
	return o
}

// StartRendering renders the quanta of the buffer that RenderQuanta or
// RenderUnobserved have not already advanced, and returns the whole
// buffer from frame 0.
func (o *OfflineContext) StartRendering() ([]float32, error) {
	if o.length <= 0 {
		return nil, fmt.Errorf("webaudio: StartRendering: length %d must be positive", o.length)
	}
	if n := quantaFor(o.length) - int(o.frame/RenderQuantum); n > 0 {
		if err := o.RenderQuanta(n); err != nil {
			return nil, err
		}
	}
	return o.dest.readRecorded(o.length), nil
}

// RealtimeSim approximates a live AudioContext for fingerprinting purposes:
// the graph is identical, but *when* a script observes the graph depends on
// event-loop scheduling and machine load. CaptureAfter advances the clock to
// the observation point; the extra offset quanta model load-induced slack.
// This is the engine-level mechanism behind the run-to-run "fickleness" the
// paper reports for every FFT-path vector (and models it exactly where the
// paper locates it: outside the DSP, in capture timing).
type RealtimeSim struct {
	*Context
}

// NewRealtimeSim creates a simulated live context.
func NewRealtimeSim(sampleRate float64, traits Traits) *RealtimeSim {
	return &RealtimeSim{Context: NewContext(sampleRate, traits)}
}

// CaptureAfter renders forward until baseQuanta+offsetQuanta quanta have
// elapsed since the context started, the moment at which the
// fingerprinting script's audioprocess handler fires. Calls with ascending
// capture points observe one render at each point in turn; a point the
// clock has already passed is an error.
func (r *RealtimeSim) CaptureAfter(baseQuanta, offsetQuanta int) error {
	if baseQuanta < 0 || offsetQuanta < 0 {
		return fmt.Errorf("webaudio: negative capture point (%d,%d)", baseQuanta, offsetQuanta)
	}
	at := int(r.frame / RenderQuantum)
	if baseQuanta+offsetQuanta < at {
		return fmt.Errorf("webaudio: capture point %d quanta already passed (clock at %d)",
			baseQuanta+offsetQuanta, at)
	}
	return r.RenderQuanta(baseQuanta + offsetQuanta - at)
}
