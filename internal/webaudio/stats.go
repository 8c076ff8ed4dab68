package webaudio

import "repro/internal/obs"

// Engine-wide render counters on the shared registry. They are bumped once
// per RenderQuanta or RenderUnobserved call (not per frame), so the hot loop
// pays a few atomic adds per render — invisible next to the DSP itself.
var (
	statContexts = obs.Default.Counter("webaudio_contexts_created_total",
		"audio contexts constructed (one per render pass)", nil)
	statQuanta = obs.Default.Counter("webaudio_quanta_rendered_total",
		"128-frame render quanta processed", nil)
	statNodes = obs.Default.Counter("webaudio_node_ticks_total",
		"node process() invocations (nodes × quanta)", nil)
	statBlockQuanta = obs.Default.Counter("webaudio_block_quanta_total",
		"render quanta processed by the compiled block engine", nil)
	statReferenceQuanta = obs.Default.Counter("webaudio_reference_quanta_total",
		"render quanta processed by the per-sample reference engine", nil)
	statUnobservedQuanta = obs.Default.Counter("webaudio_unobserved_quanta_total",
		"render quanta the block engine advanced under the unobserved-output hint", nil)
)

// RenderStats is a snapshot of the engine-wide render counters.
type RenderStats struct {
	// Contexts is the number of contexts constructed.
	Contexts int64
	// Quanta is the number of 128-frame render quanta processed.
	Quanta int64
	// NodeTicks is the number of node process() invocations.
	NodeTicks int64
	// BlockQuanta counts quanta rendered by the compiled block engine.
	BlockQuanta int64
	// ReferenceQuanta counts quanta rendered by the per-sample reference
	// engine.
	ReferenceQuanta int64
	// UnobservedQuanta counts the BlockQuanta advanced under the
	// Context.RenderUnobserved hint. The reference engine renders hinted
	// quanta in full and does not count them here.
	UnobservedQuanta int64
}

// Stats returns the engine-wide render counters (process lifetime).
func Stats() RenderStats {
	return RenderStats{
		Contexts:         statContexts.Value(),
		Quanta:           statQuanta.Value(),
		NodeTicks:        statNodes.Value(),
		BlockQuanta:      statBlockQuanta.Value(),
		ReferenceQuanta:  statReferenceQuanta.Value(),
		UnobservedQuanta: statUnobservedQuanta.Value(),
	}
}
