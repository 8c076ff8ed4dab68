package webaudio

import "math"

// The compressor's settings: the Web Audio spec defaults, which no
// fingerprinting vector changes.
const (
	compThreshold = -24   // dB above which compression starts
	compKnee      = 30    // dB width of the soft transition region
	compRatio     = 12    // input-dB change per output-dB change
	compAttack    = 0.003 // seconds
	compRelease   = 0.25  // seconds
)

// DynamicsCompressorNode implements the Web Audio dynamics compressor at
// its spec defaults (threshold −24 dB, knee 30 dB, ratio 12:1, attack 3 ms,
// release 250 ms), plus automatic makeup gain and a short look-ahead
// pre-delay. The gain computer's soft-knee polynomial and the attack/release
// exponentials run through the platform math kernel, and the knee
// coefficient carries a trait-level perturbation — together these are the
// cross-platform differences the DC fingerprinting vector harvests.
//
// The settings are constants, so the detector's attack and release
// coefficients and the makeup gain are computed once, in
// NewDynamicsCompressor.
type DynamicsCompressorNode struct {
	nodeBase

	aAtt, aRel float64   // one-pole detector coefficients
	makeup     float64   // automatic makeup gain (linear)
	env        float64   // detector envelope (linear)
	delay      []float32 // look-ahead delay line
	delayPos   int
}

// NewDynamicsCompressor creates a compressor with spec defaults.
func (c *Context) NewDynamicsCompressor() *DynamicsCompressorNode {
	d := &DynamicsCompressorNode{nodeBase: nodeBase{ctx: c, label: "compressor"}}
	k := c.traits.Kernel
	sr := c.sampleRate

	// float64 locals rather than the constants themselves, here and in
	// curveDB and processBlock: every expression below must round after
	// each float64 operation, and the compiler would evaluate a constant
	// expression such as 1/compRatio-1 exactly and round it once, which
	// can move the last bit.
	attack, release := float64(compAttack), float64(compRelease)

	// One-pole detector coefficients via the kernel's exp.
	d.aAtt = 1 - k.Exp(-1/(sr*attack))
	d.aRel = 1 - k.Exp(-1/(sr*release))

	// Makeup per Blink: (1 / curve(0dB)_linear)^0.6.
	fullLin := k.Pow(10, d.curveDB(0)/20)
	d.makeup = 1
	if fullLin > 0 {
		d.makeup = k.Pow(1/fullLin, 0.6)
	}

	n := c.traits.CompressorPreDelay
	if n < 0 {
		n = 0
	}
	d.delay = make([]float32, n+1)
	c.register(d)
	return d
}

// curveDB maps an input level (dB) to the compressed output level (dB):
// identity below threshold, a quadratic soft knee across [T, T+K], constant
// slope 1/R above. kneeEps perturbs the knee interpolation the way
// different implementations' polynomial fits differ.
func (d *DynamicsCompressorNode) curveDB(x float64) float64 {
	kneeEps := d.ctx.traits.CompressorKneeEps
	threshold, knee, ratio := float64(compThreshold), float64(compKnee), float64(compRatio)
	switch {
	case x < threshold:
		return x
	case x < threshold+knee:
		t := x - threshold
		return x + (1/ratio-1)*t*t/(2*knee)*(1+kneeEps)
	default:
		kneeEnd := threshold + knee + (1/ratio-1)*knee/2*(1+kneeEps)
		return kneeEnd + (x-threshold-knee)/ratio
	}
}

func (d *DynamicsCompressorNode) process() {
	tr := d.ctx.traits
	k := tr.Kernel

	for i := 0; i < RenderQuantum; i++ {
		in := d.sumInputs(i)

		// Detector: envelope of |x|.
		a := math.Abs(in)
		coeff := d.aRel
		if a > d.env {
			coeff = d.aAtt
		}
		d.env += (a - d.env) * coeff

		// Gain computer in the log domain.
		var gainDB float64
		if d.env > 1e-10 {
			levelDB := 20 * (k.Log(d.env) / math.Ln10)
			outDB := d.curveDB(levelDB)
			gainDB = outDB - levelDB
		}
		gainLin := k.Pow(10, gainDB/20) * d.makeup

		// Look-ahead: gain computed from the present, applied to the
		// pre-delayed signal.
		d.delay[d.delayPos] = float32(in)
		d.delayPos = (d.delayPos + 1) % len(d.delay)
		delayed := float64(d.delay[d.delayPos])

		d.output[i] = tr.round32(delayed * gainLin)
	}
}

// processBlock is the compressor block kernel: the same per-sample
// envelope/gain recurrence as process, but over the pre-mixed block with
// the detector state held in locals. The kernel Log/Pow calls per sample
// are the fingerprint surface and stay untouched.
func (d *DynamicsCompressorNode) processBlock(xs *[RenderQuantum]float64) {
	tr := d.ctx.traits
	k := tr.Kernel
	threshold, knee, ratio := float64(compThreshold), float64(compKnee), float64(compRatio)

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
	aAtt, aRel := d.aAtt, d.aRel
	env := d.env
	delay := d.delay
	delayPos := d.delayPos
	delayLen := len(delay)
	makeup := d.makeup
	for i := 0; i < RenderQuantum; i++ {
		in := xs[i]

		a := math.Abs(in)
		coeff := aRel
		if a > env {
			coeff = aAtt
		}
		env += (a - env) * coeff

		gainDB := 0.0
		if env > 1e-10 {
			levelDB := 20 * (k.Log(env) / math.Ln10)
			var outDB float64
			switch {
			case levelDB < threshold:
				outDB = levelDB
			case levelDB < kneeTop:
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
}

// processUnobserved is the compressor's kernel for quanta rendered under
// Context.RenderUnobserved. The envelope detector and the look-ahead delay
// line are feed-forward from the input and never read the gain, so it
// advances them with processBlock's exact operations and skips the gain
// computer and its kernel Log/Pow calls. Every later quantum therefore
// renders bit-identically to a full render. The output is silence.
func (d *DynamicsCompressorNode) processUnobserved(xs *[RenderQuantum]float64) {
	aAtt, aRel := d.aAtt, d.aRel
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
