package webaudio

// The block engine. When RenderQuanta compiles the topo order it also
// compiles a render program: one renderOp per node, carrying the node's
// block kernel and direct pointers to its input buffers. Running a quantum
// is then a flat loop over ops — mix the op's inputs once into a contiguous
// scratch block, call the kernel — instead of 128 per-sample virtual
// sumInputs calls per node. Kernels are written as tight 128-sample loops
// over fixed-size arrays (bounds checks eliminate; float32↔float64
// round-trips happen once per sample instead of per connection), and every
// kernel is bit-identical to the node's per-sample process() by
// construction: same operations, same order, same widths.

// renderOp is one compiled step of a render program.
type renderOp struct {
	node Node
	// comp is set when the op is a compressor, the one node with a
	// cheaper kernel for quanta rendered under Context.RenderUnobserved;
	// every other op renders hinted quanta in full.
	comp *DynamicsCompressorNode
	// srcs are the op's input buffers, resolved at compile time.
	srcs []*[RenderQuantum]float32
	// noMix marks source nodes whose kernel ignores the input block, so the
	// driver can skip zeroing the scratch.
	noMix bool
}

// renderProgram is the compiled form of a graph's topo order.
type renderProgram struct {
	ops []renderOp
}

// blockScratch holds the per-context scratch blocks the program driver and
// kernels reuse across quanta, keeping the steady-state render path
// allocation-free.
type blockScratch struct {
	// mix receives each op's summed input block.
	mix [RenderQuantum]float64
	// param receives audio-rate parameter blocks (AudioParam.blockSample).
	param [RenderQuantum]float64
}

// compileProgram rebuilds the render program from the current topo order.
// Called whenever the graph is recompiled (c.dirty).
func (c *Context) compileProgram() {
	ops := c.prog.ops[:0]
	for _, n := range c.order {
		op := renderOp{node: n}
		op.comp, _ = n.(*DynamicsCompressorNode)
		for _, in := range n.base().inputs {
			op.srcs = append(op.srcs, &in.base().output)
		}
		_, op.noMix = n.(*OscillatorNode)
		ops = append(ops, op)
	}
	c.prog.ops = ops
}

// run renders one quantum through the compiled program; unobserved runs
// the compressors' hinted kernel (Context.RenderUnobserved).
func (p *renderProgram) run(c *Context, unobserved bool) {
	frame := c.frame
	mix32 := c.traits.MixPrecision == Mix32
	fault := blockFaultHook.Load()
	for i := range p.ops {
		op := &p.ops[i]
		if !op.noMix {
			mixInto(&c.scratch.mix, op.srcs, mix32)
		}
		if unobserved && op.comp != nil {
			op.comp.processUnobserved(&c.scratch.mix)
		} else {
			op.node.processBlock(frame, &c.scratch.mix)
		}
		if fault != nil {
			fault.apply(op.node)
		}
	}
}

// mixInto sums the source blocks into dst exactly as nodeBase.sumInputs
// does per sample: single inputs widen directly; multi-input fan-in sums in
// the trait-selected precision, accumulating sources in connection order so
// every dst[i] sees the same addition sequence as the per-sample path.
func mixInto(dst *[RenderQuantum]float64, srcs []*[RenderQuantum]float32, mix32 bool) {
	switch len(srcs) {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		s := srcs[0]
		for i := range dst {
			dst[i] = float64(s[i])
		}
	default:
		if mix32 {
			var acc [RenderQuantum]float32
			s0 := srcs[0]
			for i := range acc {
				acc[i] = s0[i]
			}
			for _, s := range srcs[1:] {
				for i := range acc {
					acc[i] += s[i]
				}
			}
			for i := range dst {
				dst[i] = float64(acc[i])
			}
			return
		}
		s0 := srcs[0]
		for i := range dst {
			dst[i] = float64(s0[i])
		}
		for _, s := range srcs[1:] {
			for i := range dst {
				dst[i] += float64(s[i])
			}
		}
	}
}
