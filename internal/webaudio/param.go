package webaudio

// AudioParam is a node parameter: an intrinsic value plus the sum of any
// audio-rate modulation inputs (ConnectParam). This is the mechanism the
// AM and FM fingerprinting vectors rely on.
type AudioParam struct {
	ctx      *Context
	value    float64 // intrinsic value
	min, max float64
	inputs   []Node
}

func newParam(ctx *Context, def, min, max float64) *AudioParam {
	return &AudioParam{ctx: ctx, value: def, min: min, max: max}
}

// Value returns the intrinsic value.
func (p *AudioParam) Value() float64 { return p.value }

func (p *AudioParam) clamp(v float64) float64 {
	if p.min != 0 || p.max != 0 {
		if v < p.min {
			return p.min
		}
		if v > p.max {
			return p.max
		}
	}
	return v
}

// sampleAt returns the effective parameter value at the in-quantum offset
// i: the intrinsic value plus the sum of modulation inputs, clamped.
func (p *AudioParam) sampleAt(i int) float64 {
	v := p.value
	for _, in := range p.inputs {
		v += float64(in.base().output[i])
	}
	return p.clamp(v)
}

// isKRate reports whether the param is constant over every render quantum:
// no audio-rate modulators. This is the common case for every
// fingerprinting vector's non-modulated parameters, and what the block
// kernels' constant-folded fast paths key on.
func (p *AudioParam) isKRate() bool { return len(p.inputs) == 0 }

// constValue returns the effective value of a k-rate param — identical to
// sampleAt at any offset when isKRate holds.
func (p *AudioParam) constValue() float64 { return p.clamp(p.value) }

// blockSample fills dst[i] with sampleAt(i) for the whole quantum: the
// intrinsic value, then each modulator's block added in connection order,
// then the clamp — the same value sequence the per-sample path produces,
// computed block-at-a-time.
func (p *AudioParam) blockSample(dst *[RenderQuantum]float64) {
	for i := range dst {
		dst[i] = p.value
	}
	for _, in := range p.inputs {
		src := &in.base().output
		for i := range dst {
			dst[i] += float64(src[i])
		}
	}
	for i := range dst {
		dst[i] = p.clamp(dst[i])
	}
}
