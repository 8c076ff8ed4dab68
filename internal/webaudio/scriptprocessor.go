package webaudio

// ScriptProcessorBufferSize is the script processor's buffer length in
// frames, the size every fingerprint script builds.
const ScriptProcessorBufferSize = 4096

// ScriptProcessorNode buffers its input and invokes OnAudioProcess each time
// ScriptProcessorBufferSize frames have accumulated, passing the input
// buffer — the (deprecated but fingerprint-beloved) audio/main-thread
// bridge. The classic FFT vector reads analyser data from inside this
// callback; in a live browser, *which* callback invocation the script
// samples depends on scheduling, which is where capture-offset fickleness
// enters.
type ScriptProcessorNode struct {
	nodeBase
	buf  []float32
	fill int
	// OnAudioProcess, if non-nil, receives each completed input buffer of
	// ScriptProcessorBufferSize frames. The slice is reused between events;
	// callees must copy what they keep.
	OnAudioProcess func(inputBuffer []float32)
}

// NewScriptProcessor creates a script processor of
// ScriptProcessorBufferSize frames.
func (c *Context) NewScriptProcessor() *ScriptProcessorNode {
	s := &ScriptProcessorNode{
		nodeBase: nodeBase{ctx: c, label: "scriptprocessor"},
		buf:      make([]float32, ScriptProcessorBufferSize),
	}
	c.register(s)
	return s
}

func (s *ScriptProcessorNode) process() {
	tr := s.ctx.traits
	for i := 0; i < RenderQuantum; i++ {
		v := tr.round32(s.sumInputs(i))
		s.output[i] = v // pass-through
		s.buf[s.fill] = v
		s.fill++
		if s.fill == ScriptProcessorBufferSize {
			s.fill = 0
			if s.OnAudioProcess != nil {
				tr.Farble.farbleInPlace(s.buf)
				s.OnAudioProcess(s.buf)
			}
		}
	}
}

// processBlock is the script-processor block kernel: the same pass-through,
// accumulate, and event-dispatch logic over the pre-mixed block.
func (s *ScriptProcessorNode) processBlock(in *[RenderQuantum]float64) {
	tr := s.ctx.traits
	flush := tr.FlushDenormals
	for i := 0; i < RenderQuantum; i++ {
		v := flushRound(flush, in[i])
		s.output[i] = v
		s.buf[s.fill] = v
		s.fill++
		if s.fill == ScriptProcessorBufferSize {
			s.fill = 0
			if s.OnAudioProcess != nil {
				tr.Farble.farbleInPlace(s.buf)
				s.OnAudioProcess(s.buf)
			}
		}
	}
}
