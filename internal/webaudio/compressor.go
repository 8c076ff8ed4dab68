package webaudio

import "math"

// DynamicsCompressorNode implements the Web Audio dynamics compressor with
// its spec defaults: threshold −24 dB, knee 30 dB, ratio 12:1, attack 3 ms,
// release 250 ms, plus automatic makeup gain and a short look-ahead
// pre-delay. The gain computer's soft-knee polynomial and the attack/release
// exponentials run through the platform math kernel, and the knee
// coefficient carries a trait-level perturbation — together these are the
// cross-platform differences the DC fingerprinting vector harvests.
type DynamicsCompressorNode struct {
	nodeBase
	// Threshold in dB above which compression starts. Default −24.
	Threshold *AudioParam
	// Knee width in dB of the soft transition region. Default 30.
	Knee *AudioParam
	// Ratio of input-dB change to output-dB change. Default 12.
	Ratio *AudioParam
	// Attack time in seconds. Default 0.003.
	Attack *AudioParam
	// Release time in seconds. Default 0.25.
	Release *AudioParam

	env        float64   // detector envelope (linear)
	reduction  float64   // last gain reduction in dB (the .reduction attribute)
	delay      []float32 // look-ahead delay line
	delayPos   int
	makeup     float64
	haveMakeup bool
}

// NewDynamicsCompressor creates a compressor with spec defaults.
func (c *Context) NewDynamicsCompressor() *DynamicsCompressorNode {
	d := &DynamicsCompressorNode{nodeBase: nodeBase{ctx: c, label: "compressor"}}
	d.Threshold = newParam(c, "threshold", -24, -100, 0)
	d.Knee = newParam(c, "knee", 30, 0, 40)
	d.Ratio = newParam(c, "ratio", 12, 1, 20)
	d.Attack = newParam(c, "attack", 0.003, 0, 1)
	d.Release = newParam(c, "release", 0.25, 0, 1)
	n := c.traits.CompressorPreDelay
	if n < 0 {
		n = 0
	}
	d.delay = make([]float32, n+1)
	c.register(d)
	return d
}

func (d *DynamicsCompressorNode) params() []*AudioParam {
	return []*AudioParam{d.Threshold, d.Knee, d.Ratio, d.Attack, d.Release}
}

// curveDB maps an input level (dB) to the compressed output level (dB):
// identity below threshold, a quadratic soft knee across [T, T+K], constant
// slope 1/R above. kneeEps perturbs the knee interpolation the way
// different implementations' polynomial fits differ.
func (d *DynamicsCompressorNode) curveDB(x, threshold, knee, ratio float64) float64 {
	kneeEps := d.ctx.traits.CompressorKneeEps
	switch {
	case x < threshold:
		return x
	case knee > 0 && x < threshold+knee:
		t := x - threshold
		return x + (1/ratio-1)*t*t/(2*knee)*(1+kneeEps)
	default:
		kneeEnd := threshold + knee + (1/ratio-1)*knee/2*(1+kneeEps)
		return kneeEnd + (x-threshold-knee)/ratio
	}
}

func (d *DynamicsCompressorNode) process(frameTime int64) {
	tr := d.ctx.traits
	k := tr.Kernel
	sr := d.ctx.sampleRate

	threshold := d.Threshold.sampleAt(frameTime, 0)
	knee := d.Knee.sampleAt(frameTime, 0)
	ratio := d.Ratio.sampleAt(frameTime, 0)
	attack := d.Attack.sampleAt(frameTime, 0)
	release := d.Release.sampleAt(frameTime, 0)

	// One-pole detector coefficients via the kernel's exp.
	aAtt := 1.0
	if attack > 0 {
		aAtt = 1 - k.Exp(-1/(sr*attack))
	}
	aRel := 1.0
	if release > 0 {
		aRel = 1 - k.Exp(-1/(sr*release))
	}

	if !d.haveMakeup {
		// Makeup per Blink: (1 / curve(0dB)_linear)^0.6.
		fullDB := d.curveDB(0, threshold, knee, ratio)
		fullLin := k.Pow(10, fullDB/20)
		if fullLin > 0 {
			d.makeup = k.Pow(1/fullLin, 0.6)
		} else {
			d.makeup = 1
		}
		d.haveMakeup = true
	}

	for i := 0; i < RenderQuantum; i++ {
		in := d.sumInputs(i)

		// Detector: envelope of |x|.
		a := math.Abs(in)
		coeff := aRel
		if a > d.env {
			coeff = aAtt
		}
		d.env += (a - d.env) * coeff

		// Gain computer in the log domain.
		var gainDB float64
		if d.env > 1e-10 {
			levelDB := 20 * (k.Log(d.env) / math.Ln10)
			outDB := d.curveDB(levelDB, threshold, knee, ratio)
			gainDB = outDB - levelDB
		}
		d.reduction = gainDB
		gainLin := k.Pow(10, gainDB/20) * d.makeup

		// Look-ahead: gain computed from the present, applied to the
		// pre-delayed signal.
		d.delay[d.delayPos] = float32(in)
		d.delayPos = (d.delayPos + 1) % len(d.delay)
		delayed := float64(d.delay[d.delayPos])

		d.output[i] = tr.round32(delayed * gainLin)
	}
}

// blockPreamble is the per-quantum set-up of both block kernels, the same
// operations as process's: it samples the parameters at the quantum's first
// frame, derives the detector's attack and release coefficients through the
// kernel's Exp and, on the first quantum rendered, fixes the makeup gain.
func (d *DynamicsCompressorNode) blockPreamble(frameTime int64) (threshold, knee, ratio, aAtt, aRel float64) {
	k := d.ctx.traits.Kernel
	sr := d.ctx.sampleRate

	threshold = d.Threshold.sampleAt(frameTime, 0)
	knee = d.Knee.sampleAt(frameTime, 0)
	ratio = d.Ratio.sampleAt(frameTime, 0)
	attack := d.Attack.sampleAt(frameTime, 0)
	release := d.Release.sampleAt(frameTime, 0)

	aAtt = 1.0
	if attack > 0 {
		aAtt = 1 - k.Exp(-1/(sr*attack))
	}
	aRel = 1.0
	if release > 0 {
		aRel = 1 - k.Exp(-1/(sr*release))
	}

	if !d.haveMakeup {
		fullDB := d.curveDB(0, threshold, knee, ratio)
		fullLin := k.Pow(10, fullDB/20)
		if fullLin > 0 {
			d.makeup = k.Pow(1/fullLin, 0.6)
		} else {
			d.makeup = 1
		}
		d.haveMakeup = true
	}
	return threshold, knee, ratio, aAtt, aRel
}

// processBlock is the compressor block kernel: same per-quantum coefficient
// preamble and per-sample envelope/gain recurrence as process, but over the
// pre-mixed block with the detector state held in locals. The kernel Log/Pow
// calls per sample are the fingerprint surface and stay untouched.
func (d *DynamicsCompressorNode) processBlock(frameTime int64, xs *[RenderQuantum]float64) {
	tr := d.ctx.traits
	k := tr.Kernel
	threshold, knee, ratio, aAtt, aRel := d.blockPreamble(frameTime)

	// Hoisted gain-computer constants: each expression below reproduces
	// the corresponding curveDB subterm with the identical operation
	// sequence, so per-sample results stay bit-equal to the reference.
	kneeEps := tr.CompressorKneeEps
	ke1 := 1 + kneeEps
	rInv := 1/ratio - 1
	knee2 := 2 * knee
	kneeTop := threshold + knee
	kneeEnd := threshold + knee + (1/ratio-1)*knee/2*(1+kneeEps)

	flush := tr.FlushDenormals
	env := d.env
	delay := d.delay
	delayPos := d.delayPos
	delayLen := len(delay)
	makeup := d.makeup
	gainDB := 0.0
	for i := 0; i < RenderQuantum; i++ {
		in := xs[i]

		a := math.Abs(in)
		coeff := aRel
		if a > env {
			coeff = aAtt
		}
		env += (a - env) * coeff

		gainDB = 0
		if env > 1e-10 {
			levelDB := 20 * (k.Log(env) / math.Ln10)
			var outDB float64
			switch {
			case levelDB < threshold:
				outDB = levelDB
			case knee > 0 && levelDB < kneeTop:
				t := levelDB - threshold
				outDB = levelDB + rInv*t*t/knee2*ke1
			default:
				outDB = kneeEnd + (levelDB-threshold-knee)/ratio
			}
			gainDB = outDB - levelDB
		}
		gainLin := k.Pow(10, gainDB/20) * makeup

		// delayPos < delayLen always holds, so the conditional reset
		// computes the same index as the reference's modulo.
		delay[delayPos] = float32(in)
		delayPos++
		if delayPos == delayLen {
			delayPos = 0
		}
		delayed := float64(delay[delayPos])

		d.output[i] = flushRound(flush, delayed*gainLin)
	}
	d.env = env
	d.delayPos = delayPos
	d.reduction = gainDB
}

// processUnobserved is the compressor's kernel for quanta rendered under
// Context.RenderUnobserved. The envelope detector and the look-ahead delay
// line are feed-forward from the input and never read the gain, so it
// advances them with processBlock's exact operations and skips the gain
// computer and its kernel Log/Pow calls. Every later quantum therefore
// renders bit-identically to a full render. The output is silence, and
// Reduction keeps its last value.
func (d *DynamicsCompressorNode) processUnobserved(frameTime int64, xs *[RenderQuantum]float64) {
	_, _, _, aAtt, aRel := d.blockPreamble(frameTime)
	env := d.env
	delay := d.delay
	delayPos := d.delayPos
	delayLen := len(delay)
	for i := 0; i < RenderQuantum; i++ {
		in := xs[i]

		a := math.Abs(in)
		coeff := aRel
		if a > env {
			coeff = aAtt
		}
		env += (a - env) * coeff

		delay[delayPos] = float32(in)
		delayPos++
		if delayPos == delayLen {
			delayPos = 0
		}
	}
	d.env = env
	d.delayPos = delayPos
	d.output = [RenderQuantum]float32{}
}
