package webaudio

// Engine self-checking. The block engine's bit-identity to the per-sample
// reference engine is enforced at test time by the differential property
// suite; this file provides the *runtime* counterpart: a lockstep
// differential driver that renders the same graph under both engines one
// quantum at a time and compares every node's output block down to the
// Float32bits, attributing the first divergence to a specific compiled op
// and sample offset. The vectors shadow auditor samples production renders
// through it continuously, so a miscompiled or bit-rotted kernel surfaces
// as a named divergence instead of silently corrupting every downstream
// entropy number.
//
// The file also owns the test-only block-kernel fault injector, how the
// auditor itself is proven to catch a broken kernel.

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Divergence locates the first bit mismatch between two engines rendering
// the same graph: which compiled op, at which quantum and sample, produced
// which differing bits.
type Divergence struct {
	// Quantum is the 0-based render quantum of the first mismatch.
	Quantum int `json:"quantum"`
	// Frame is the absolute frame time at the start of that quantum.
	Frame int64 `json:"frame"`
	// OpIndex is the op's position in the compiled render program (the
	// graph's topo order).
	OpIndex int `json:"op_index"`
	// Op is the offending node's label (e.g. "oscillator:triangle").
	Op string `json:"op"`
	// Sample is the first differing sample within the quantum [0,128).
	Sample int `json:"sample"`
	// GotBits/WantBits are the differing Float32bits (got = first
	// context's engine, want = second's).
	GotBits  uint32 `json:"got_bits"`
	WantBits uint32 `json:"want_bits"`
}

func (d *Divergence) String() string {
	return fmt.Sprintf("op %d (%s) quantum %d sample %d: got 0x%08x want 0x%08x",
		d.OpIndex, d.Op, d.Quantum, d.Sample, d.GotBits, d.WantBits)
}

// LockstepCompare advances got and want — two contexts holding identically
// constructed graphs — quanta render quanta in lockstep, comparing every
// node's output block bit-exactly after each quantum. It returns the first
// divergence found (nil when the engines agree for the whole window). The
// two contexts must have been built by the same graph-construction code;
// mismatched graphs are an error, not a divergence.
func LockstepCompare(got, want *Context, quanta int) (*Divergence, error) {
	for q := 0; q < quanta; q++ {
		frame := got.frame
		if err := got.RenderQuanta(1); err != nil {
			return nil, err
		}
		if err := want.RenderQuanta(1); err != nil {
			return nil, err
		}
		if len(got.order) != len(want.order) {
			return nil, fmt.Errorf("webaudio: lockstep graphs differ: %d vs %d nodes",
				len(got.order), len(want.order))
		}
		for i, gn := range got.order {
			wn := want.order[i]
			if gn.base().label != wn.base().label {
				return nil, fmt.Errorf("webaudio: lockstep op %d differs: %q vs %q",
					i, gn.base().label, wn.base().label)
			}
			gout, wout := &gn.base().output, &wn.base().output
			for s := 0; s < RenderQuantum; s++ {
				gb, wb := math.Float32bits(gout[s]), math.Float32bits(wout[s])
				if gb != wb {
					return &Divergence{
						Quantum: q, Frame: frame, OpIndex: i,
						Op: gn.base().label, Sample: s,
						GotBits: gb, WantBits: wb,
					}, nil
				}
			}
		}
	}
	return nil, nil
}

// blockFault describes an injected block-kernel corruption: after the
// labeled op's kernel runs, the given sample of its output has xor applied
// to its Float32bits. Reference-engine rendering is untouched, so every
// injected fault is a guaranteed engine divergence — the mechanism the
// shadow-audit e2e tests use to prove a broken kernel gets caught.
type blockFault struct {
	label  string
	sample int
	xor    uint32
}

var blockFaultHook atomic.Pointer[blockFault]

// SetBlockFault injects a deterministic corruption into the block engine:
// every quantum, the output sample of the first op whose label matches
// label has xor applied to its Float32bits after the kernel runs. An empty
// label clears the fault. Test-only: never set this outside a test.
func SetBlockFault(label string, sample int, xor uint32) {
	if label == "" {
		blockFaultHook.Store(nil)
		return
	}
	if sample < 0 || sample >= RenderQuantum {
		sample = 0
	}
	blockFaultHook.Store(&blockFault{label: label, sample: sample, xor: xor})
}

// apply corrupts op's output if the label matches.
func (f *blockFault) apply(n Node) {
	b := n.base()
	if b.label != f.label {
		return
	}
	out := &b.output
	out[f.sample] = math.Float32frombits(math.Float32bits(out[f.sample]) ^ f.xor)
}
