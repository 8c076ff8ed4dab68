package webaudio

import "sync/atomic"

// Engine selects the render implementation a context drives its graph with.
// Both engines are required to produce bit-identical output for every graph
// (enforced by the differential property tests and the study golden suite);
// they differ only in cost.
type Engine int32

const (
	// EngineBlock is the compiled block-processing engine: RenderQuanta
	// compiles the topo order into a render program whose kernels process
	// whole 128-frame quanta over contiguous buffers, with input mixing done
	// once per block and a constant-folded fast path for k-rate parameters.
	// This is the default.
	EngineBlock Engine = iota
	// EngineReference is the original per-sample engine: every node's
	// process() pulls its inputs one sample at a time through virtual
	// dispatch. Kept as the executable specification the block engine is
	// differentially tested against.
	EngineReference
)

// String names the engine for flags and logs.
func (e Engine) String() string {
	if e == EngineReference {
		return "reference"
	}
	return "block"
}

// defaultEngine holds the Engine new contexts start with. The zero value is
// EngineBlock. Atomic so tests and benchmarks can flip it while rendering
// goroutines construct contexts.
var defaultEngine atomic.Int32

// SetDefaultEngine sets the engine newly created contexts use and returns
// the previous default — the reference-engine flag callers (tests,
// benchmarks, the fpstudy -render-engine flag) toggle.
func SetDefaultEngine(e Engine) Engine {
	return Engine(defaultEngine.Swap(int32(e)))
}

// DefaultEngine returns the engine newly created contexts use.
func DefaultEngine() Engine { return Engine(defaultEngine.Load()) }

// SetEngine switches this context's render implementation. Output is
// bit-identical either way; only rendering cost changes.
func (c *Context) SetEngine(e Engine) { c.engine = e }
