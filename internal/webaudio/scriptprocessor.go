package webaudio

import "fmt"

// ScriptProcessorNode buffers its input and invokes OnAudioProcess each time
// bufferSize frames have accumulated, passing the input buffer — the
// (deprecated but fingerprint-beloved) audio/main-thread bridge. The classic
// FFT vector reads analyser data from inside this callback; in a live
// browser, *which* callback invocation the script samples depends on
// scheduling, which is where capture-offset fickleness enters.
type ScriptProcessorNode struct {
	nodeBase
	bufferSize int
	buf        []float32
	fill       int
	// OnAudioProcess, if non-nil, receives each completed input buffer of
	// bufferSize frames. The slice is reused between events; callees must
	// copy what they keep.
	OnAudioProcess func(inputBuffer []float32)
}

// NewScriptProcessor creates a script processor. bufferSize must be a power
// of two in [256, 16384]; fingerprint scripts use 4096.
func (c *Context) NewScriptProcessor(bufferSize int) (*ScriptProcessorNode, error) {
	if bufferSize < 256 || bufferSize > 16384 || bufferSize&(bufferSize-1) != 0 {
		return nil, fmt.Errorf("webaudio: invalid ScriptProcessor bufferSize %d", bufferSize)
	}
	s := &ScriptProcessorNode{
		nodeBase:   nodeBase{ctx: c, label: "scriptprocessor"},
		bufferSize: bufferSize,
		buf:        make([]float32, bufferSize),
	}
	c.register(s)
	return s, nil
}

func (s *ScriptProcessorNode) process() {
	tr := s.ctx.traits
	for i := 0; i < RenderQuantum; i++ {
		v := tr.round32(s.sumInputs(i))
		s.output[i] = v // pass-through
		s.buf[s.fill] = v
		s.fill++
		if s.fill == s.bufferSize {
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
		if s.fill == s.bufferSize {
			s.fill = 0
			if s.OnAudioProcess != nil {
				tr.Farble.farbleInPlace(s.buf)
				s.OnAudioProcess(s.buf)
			}
		}
	}
}
