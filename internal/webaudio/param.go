package webaudio

import (
	"math"
	"sort"
)

// AudioParam is a sample-accurate node parameter: an intrinsic value shaped
// by scheduled automation events plus the sum of any audio-rate modulation
// inputs (ConnectParam). This is the mechanism the AM and FM fingerprinting
// vectors rely on.
type AudioParam struct {
	ctx      *Context
	name     string
	value    float64 // intrinsic (pre-automation) value
	min, max float64
	events   []paramEvent
	inputs   []Node
}

type paramEventKind int

const (
	setValue paramEventKind = iota
	exponentialRamp
)

type paramEvent struct {
	kind paramEventKind
	time float64 // seconds
	val  float64
}

func newParam(ctx *Context, name string, def, min, max float64) *AudioParam {
	return &AudioParam{ctx: ctx, name: name, value: def, min: min, max: max}
}

// Value returns the intrinsic (most recently set) value.
func (p *AudioParam) Value() float64 { return p.value }

// SetValue sets the intrinsic value immediately (the `param.value = x` form).
func (p *AudioParam) SetValue(v float64) { p.value = p.clamp(v) }

// SetValueAtTime schedules a step change, like the Web Audio method.
func (p *AudioParam) SetValueAtTime(v, t float64) {
	p.insert(paramEvent{kind: setValue, time: t, val: v})
}

// ExponentialRampToValueAtTime schedules an exponential ramp ending at t.
// The target value must be non-zero, per spec.
func (p *AudioParam) ExponentialRampToValueAtTime(v, t float64) {
	if v == 0 {
		panic("webaudio: exponential ramp target must be non-zero")
	}
	p.insert(paramEvent{kind: exponentialRamp, time: t, val: v})
}

func (p *AudioParam) insert(e paramEvent) {
	p.events = append(p.events, e)
	sort.SliceStable(p.events, func(i, j int) bool { return p.events[i].time < p.events[j].time })
}

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

// automatedValue evaluates the automation timeline at time t (seconds),
// ignoring modulation inputs.
func (p *AudioParam) automatedValue(t float64) float64 {
	if len(p.events) == 0 {
		return p.value
	}
	val := p.value // anchored value at prevTime
	prevTime := 0.0
	for i := range p.events {
		e := &p.events[i]
		if e.time > t {
			// A pending exponential ramp interpolates from the previous
			// anchor; a pending step leaves the value where it is.
			if e.kind != exponentialRamp || val == 0 || e.time == prevTime {
				return p.clamp(val)
			}
			frac := (t - prevTime) / (e.time - prevTime)
			ratio := e.val / val
			if ratio <= 0 {
				return p.clamp(val)
			}
			return p.clamp(val * math.Pow(ratio, frac))
		}
		// Advance the anchored state through the event.
		val = e.val
		prevTime = e.time
	}
	return p.clamp(val)
}

// sampleAt returns the effective parameter value for an absolute frame:
// automation plus the sum of modulation inputs at the in-quantum offset i.
func (p *AudioParam) sampleAt(frameTime int64, i int) float64 {
	t := (float64(frameTime) + float64(i)) / p.ctx.sampleRate
	v := p.automatedValue(t)
	for _, in := range p.inputs {
		v += float64(in.base().output[i])
	}
	return p.clamp(v)
}

// isKRate reports whether the param is constant over every render quantum:
// no automation events and no audio-rate modulators. This is the common
// case for every fingerprinting vector's non-modulated parameters, and what
// the block kernels' constant-folded fast paths key on.
func (p *AudioParam) isKRate() bool { return len(p.events) == 0 && len(p.inputs) == 0 }

// constValue returns the effective value of a k-rate param — identical to
// sampleAt at any frame when isKRate holds.
func (p *AudioParam) constValue() float64 { return p.clamp(p.value) }

// blockSample fills dst[i] with sampleAt(frameTime, i) for the whole
// quantum: per-sample automation evaluation, then each modulator's block
// added in connection order, then the clamp — the same value sequence the
// per-sample path produces, computed block-at-a-time.
func (p *AudioParam) blockSample(frameTime int64, dst *[RenderQuantum]float64) {
	if len(p.events) == 0 {
		for i := range dst {
			dst[i] = p.value
		}
	} else {
		sr := p.ctx.sampleRate
		for i := range dst {
			t := (float64(frameTime) + float64(i)) / sr
			dst[i] = p.automatedValue(t)
		}
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
