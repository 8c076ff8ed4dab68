package webaudio

import "fmt"

// RenderQuantum is the fixed block size of the processing graph, per the Web
// Audio specification.
const RenderQuantum = 128

// Node is one audio-graph vertex. Nodes are created through a Context and
// process one render quantum at a time, in the graph's topological order.
// No node reads the context's clock: every source sounds from frame 0, so
// a node's own state says where in the render it is.
type Node interface {
	// base returns the embedded node bookkeeping. Implemented by nodeBase.
	base() *nodeBase
	// process renders the node's next quantum into base().output. Inputs
	// are guaranteed to have been processed for the same quantum.
	process()
	// processBlock is process's block kernel (program.go): it renders the
	// same quantum, bit for bit, given the pre-mixed input block (the
	// sumInputs result for every frame of the quantum). Nodes without
	// audio inputs receive the scratch untouched and must ignore it.
	processBlock(in *[RenderQuantum]float64)
}

// nodeBase carries graph wiring and the node's mono output buffer.
type nodeBase struct {
	ctx    *Context
	label  string
	inputs []Node // audio-input connections
	output [RenderQuantum]float32
}

func (b *nodeBase) base() *nodeBase { return b }

// sumInputs mixes all input connections for frame i using the engine's
// mixing precision trait.
func (b *nodeBase) sumInputs(i int) float64 {
	switch len(b.inputs) {
	case 0:
		return 0
	case 1:
		return float64(b.inputs[0].base().output[i])
	}
	if b.ctx.traits.MixPrecision == Mix32 {
		var s float32
		for _, in := range b.inputs {
			s += in.base().output[i]
		}
		return float64(s)
	}
	var s float64
	for _, in := range b.inputs {
		s += float64(in.base().output[i])
	}
	return s
}

// Connect wires src's audio output into dst's audio input. Fan-in is summed;
// fan-out is permitted. Connect panics if the nodes belong to different
// contexts, mirroring the DOM exception the real API throws.
func Connect(src, dst Node) {
	sb, db := src.base(), dst.base()
	if sb.ctx != db.ctx {
		panic("webaudio: cannot connect nodes from different contexts")
	}
	db.inputs = append(db.inputs, src)
	sb.ctx.dirty = true
}

// ConnectParam wires src's audio output into an AudioParam (audio-rate
// parameter modulation, as used by the AM and FM fingerprinting vectors).
func ConnectParam(src Node, p *AudioParam) {
	if src.base().ctx != p.ctx {
		panic("webaudio: cannot connect across contexts")
	}
	p.inputs = append(p.inputs, src)
	p.ctx.dirty = true
}

// topoOrder returns the graph's nodes in a processing order where every
// node's audio and parameter inputs precede it. It reports an error on
// cycles (delay-free loops are unsupported, as in the offline spec subset
// we implement).
func (c *Context) topoOrder() ([]Node, error) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[Node]int, len(c.nodes))
	order := make([]Node, 0, len(c.nodes))
	var visit func(n Node) error
	visit = func(n Node) error {
		switch color[n] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("webaudio: graph cycle involving %s", n.base().label)
		}
		color[n] = grey
		for _, in := range n.base().inputs {
			if err := visit(in); err != nil {
				return err
			}
		}
		for _, p := range paramsOf(n) {
			for _, in := range p.inputs {
				if err := visit(in); err != nil {
					return err
				}
			}
		}
		color[n] = black
		order = append(order, n)
		return nil
	}
	for _, n := range c.nodes {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// paramModulated is implemented by nodes exposing audio-rate parameters so
// the scheduler can order their modulator inputs first.
type paramModulated interface {
	params() []*AudioParam
}

func paramsOf(n Node) []*AudioParam {
	if pm, ok := n.(paramModulated); ok {
		return pm.params()
	}
	return nil
}
